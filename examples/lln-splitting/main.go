// LLN splitting: reproduce the Figure 2 exploration — splitting each
// task's 512 MB block into k successive write calls makes the worst
// case faster even though total bytes are unchanged, and the Eq.-1 /
// Law-of-Large-Numbers machinery predicts it from the k=1 ensemble
// alone.
//
//	go run ./examples/lln-splitting
package main

import (
	"fmt"
	"os"
	"sort"

	"ensembleio"
	"ensembleio/internal/report"
)

func main() {
	fmt.Println("IOR 1024 x 512 MB on Franklin, splitting each block into k calls")
	fmt.Println()

	// The four splittings are independent seeded runs — fan them
	// across all cores. The reduction below reads runs[i] in k order,
	// so the table is identical to the sequential version.
	ks := []int{1, 2, 4, 8}
	runs := ensembleio.RunMany(0, ks, func(k int) *ensembleio.Run {
		return ensembleio.RunIOR(ensembleio.IORConfig{
			Machine: ensembleio.Franklin(), Tasks: 1024, Reps: 5,
			TransferBytes: 512e6 / int64(k), Seed: 1,
		})
	})

	// The k=1 single-call ensemble: everything the statistical model
	// needs is in this one distribution.
	single := ensembleio.Durations(runs[0], ensembleio.OpWrite)

	rows := [][]string{{"k", "transfer", "measured MB/s", "task-total CV", "predicted slowest (s)"}}
	for i, k := range ks {
		run := runs[i]

		// Group each rank's k calls back into per-task totals.
		sums := map[[2]int]float64{}
		counts := map[int]int{}
		for _, e := range run.Collector.Events {
			if e.Op != ensembleio.OpWrite {
				continue
			}
			rank := int(e.Rank)
			rep := counts[rank] / k
			counts[rank]++
			sums[[2]int{rank, rep}] += float64(e.Dur)
		}
		// Fold totals in sorted (rank, rep) order so the ensemble is
		// reproducible run to run.
		taskKeys := make([][2]int, 0, len(sums))
		for tk := range sums {
			taskKeys = append(taskKeys, tk)
		}
		sort.Slice(taskKeys, func(i, j int) bool {
			if taskKeys[i][0] != taskKeys[j][0] {
				return taskKeys[i][0] < taskKeys[j][0]
			}
			return taskKeys[i][1] < taskKeys[j][1]
		})
		totals := ensembleio.NewDataset(nil)
		for _, tk := range taskKeys {
			totals.Add(sums[tk])
		}

		rows = append(rows, []string{
			fmt.Sprint(k),
			fmt.Sprintf("%d MB", 512/k),
			report.F(run.AggregateMBps(), 0),
			report.F(totals.CV(), 3),
			report.F(ensembleio.SplitPrediction(single, k, 1024), 1),
		})
	}
	report.Table(os.Stdout, rows)

	fmt.Println(`
Reading the table:
  - measured MB/s rises with k even though the same bytes move — the
    run is paced by the slowest task, and splitting narrows per-task
    totals (Law of Large Numbers), pulling the worst case toward the
    mean;
  - task-total CV falls roughly like 1/sqrt(k);
  - the prediction column uses ONLY the k=1 ensemble: the k-fold
    convolution of the single-call distribution, pushed through the
    slowest-of-1024 order statistic (Eq. 1). The trend matches the
    measurement without re-running anything.`)
}
