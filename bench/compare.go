package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
)

// resultsRun is one results file of a set of runs.
type resultsRun struct {
	path string
	res  results
}

// runCompare compares two sets of runs, each given as a results file or
// a directory holding results.json files at any depth. For every
// end-to-end metric and workload it prints both sets' median over runs
// with quartiles and run count, the change, the bound and the verdict;
// then failed_frac; then, when every run has the same seed, every
// exact work counter and output digest that differs from the first
// run of A. It exits 1 when anything regressed or an exact value
// differs.
func runCompare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "bench: usage: bench -compare A B")
		return 2
	}
	var sides [2][]resultsRun
	for i, arg := range args {
		runs, err := loadRuns(arg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		sides[i] = runs
	}
	a, b := sides[0], sides[1]
	fmt.Printf("A = %s (%d runs, seeds %v)\nB = %s (%d runs, seeds %v)\n", args[0], len(a), seeds(a), args[1], len(b), seeds(b))
	fmt.Printf("%-14s %-22s %-30s %-30s %8s %6s  %s\n", "workload", "metric", "A median [q1, q3] runs", "B median [q1, q3] runs", "change", "bound", "verdict")
	sameSeed := len(seeds(append(append([]resultsRun(nil), a...), b...))) == 1
	status := 0
	for _, w := range allWorkloads {
		ra, rb := records(a, w.name), records(b, w.name)
		if len(measured(ra)) == 0 || len(measured(rb)) == 0 {
			fmt.Printf("%-14s missing from one side\n", w.name)
			status = 1
			continue
		}
		for _, m := range endToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			sa, sb := summarize(va), summarize(vb)
			v := judge(m, va, vb)
			if v == regressed {
				status = 1
			}
			fmt.Printf("%-14s %-22s %-30s %-30s %+7.1f%% %5.0f%%  %s\n", w.name, m.Name, fmtSummary(sa), fmtSummary(sb),
				100*(sb.Median-sa.Median)/sa.Median, 100*m.Bound, v)
		}
		fa, fb := failedShare(ra), failedShare(rb)
		v := within
		if fb > fa {
			v, status = regressed, 1
		}
		fmt.Printf("%-14s %-22s %-30.4g %-30.4g %8s %6s  %s\n", w.name, failedFrac.Name, fa, fb, "", "any", v)
		if !sameSeed {
			continue // different inputs: exact values are expected to differ
		}
		ref := measured(ra)[0]
		diffs := 0
		for _, r := range append(measured(ra)[1:], measured(rb)...) {
			for _, d := range exactDiffs(ref.rec, r.rec) {
				fmt.Printf("%-14s exact value differs in %s: %s\n", w.name, r.path, d)
				diffs++
			}
		}
		if diffs > 0 {
			status = 1
		} else {
			fmt.Printf("%-14s exact work counters, model.sim_s and %d output digests identical in all %d runs\n",
				w.name, len(ref.rec.Digests), len(measured(ra))+len(measured(rb)))
		}
	}
	return status
}

// loadRuns reads the results file at path, or every results.json under
// the directory at path.
func loadRuns(path string) ([]resultsRun, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if info.IsDir() {
		files = nil
		err = filepath.WalkDir(path, func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && d.Name() == "results.json" {
				files = append(files, p)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		if len(files) == 0 {
			return nil, fmt.Errorf("no results.json under %s", path)
		}
	}
	runs := make([]resultsRun, len(files))
	for i, f := range files {
		data, err := os.ReadFile(f)
		if err == nil {
			err = json.Unmarshal(data, &runs[i].res)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		runs[i].path = f
	}
	return runs, nil
}

// workloadRun is one run's record of one workload.
type workloadRun struct {
	path string
	rec  *record
}

func records(runs []resultsRun, workload string) []workloadRun {
	var out []workloadRun
	for _, r := range runs {
		if rec := r.res.Workloads[workload]; rec != nil {
			out = append(out, workloadRun{r.path, rec})
		}
	}
	return out
}

// measured drops the runs whose child died before it sent metrics.
func measured(rs []workloadRun) []workloadRun {
	var out []workloadRun
	for _, r := range rs {
		if r.rec.Metrics != nil {
			out = append(out, r)
		}
	}
	return out
}

// values is metric name's value in every measured run.
func values(rs []workloadRun, name string) []float64 {
	var out []float64
	for _, r := range measured(rs) {
		out = append(out, r.rec.Metrics[name].Value)
	}
	return out
}

func seeds(runs []resultsRun) []int64 {
	var out []int64
	for _, r := range runs {
		if !slices.Contains(out, r.res.Seed) {
			out = append(out, r.res.Seed)
		}
	}
	slices.Sort(out)
	return out
}

func fmtSummary(s summary) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] %d", s.Median, s.Q1, s.Q3, s.N)
}

// failedShare is failed ÷ attempted operations over every run,
// including runs whose child died.
func failedShare(rs []workloadRun) float64 {
	var failed, attempted int
	for _, r := range rs {
		failed += r.rec.Failed
		attempted += r.rec.Attempted
	}
	if attempted == 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

// exactDiffs lists the work counters and digests that differ between
// two records of the same workload. Counters are only compared when
// both records come from a traced pass.
func exactDiffs(a, b *record) []string {
	var out []string
	for _, m := range workCounters {
		va, oka := a.Metrics[m.Name]
		vb, okb := b.Metrics[m.Name]
		if oka && okb && va.Value != vb.Value {
			out = append(out, fmt.Sprintf("%s %v vs %v", m.Name, va.Value, vb.Value))
		}
	}
	for _, n := range slices.Sorted(maps.Keys(a.Digests)) {
		if a.Digests[n] != b.Digests[n] {
			out = append(out, "output digest of "+n)
		}
	}
	if len(a.Digests) != len(b.Digests) {
		out = append(out, fmt.Sprintf("%d vs %d output digests", len(a.Digests), len(b.Digests)))
	}
	return out
}
