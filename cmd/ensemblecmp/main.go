// Command ensemblecmp compares the ensembles of two runs — the
// reproducibility check at the heart of the methodology. Given two
// trace files (or two profile files), it reports per-operation KS and
// Wasserstein distances, mode alignment, and a verdict: statistically
// the same experiment, or not.
//
// Usage:
//
//	ensemblecmp [-j N] A.trace B.trace
//	ensemblecmp [-j N] -profiles A.prof.json B.prof.json
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	"ensembleio"
	"ensembleio/internal/analysis"
	"ensembleio/internal/cliutil"
	"ensembleio/internal/ensemble"
	"ensembleio/internal/ipmio"
	"ensembleio/internal/report"
	"ensembleio/internal/runpool"
	"ensembleio/internal/tracefmt"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ensemblecmp: ")
	profiles := flag.Bool("profiles", false, "inputs are profile JSON files, not traces")
	ksFlag := flag.Float64("ks", 0, "KS verdict threshold (0 = adaptive: the alpha=0.001 two-sample critical value, at least 0.1)")
	jobs := flag.Int("j", 0, "parallel input loaders (0 = all cores)")
	prof := flag.String("prof", "", "write CPU/heap profiles to PREFIX.{cpu,heap}.pprof")
	version := flag.Bool("version", false, "print build version and exit")
	flag.Parse()
	if *version {
		fmt.Println(cliutil.Version())
		return
	}
	stopProf, err := cliutil.StartProfiles(*prof)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			log.Print(err)
		}
	}()
	ksThreshold = *ksFlag
	if flag.NArg() != 2 {
		log.Fatal("usage: ensemblecmp [-profiles] [-j N] A B")
	}
	paths := []string{flag.Arg(0), flag.Arg(1)}

	if *profiles {
		// The two inputs decode independently; fan them across the pool.
		ps := runpool.Map(*jobs, paths, func(_ int, p string) *tracefmt.Profile {
			return loadProfile(p)
		})
		compareProfiles(ps[0], ps[1])
		return
	}
	evs := runpool.Map(*jobs, paths, func(_ int, p string) []ipmio.Event {
		return loadEvents(p)
	})
	compareTraces(paths[0], paths[1], evs[0], evs[1])
}

// ksThreshold is the fixed verdict threshold (0 = adaptive).
var ksThreshold float64

// ksLimit returns the verdict threshold for two samples of the given
// sizes: the fixed -ks value if set, otherwise the alpha=0.001
// two-sample Kolmogorov-Smirnov critical value (floored at 0.1) so
// that small ensembles are judged against their own sampling noise.
func ksLimit(nA, nB int) float64 {
	if ksThreshold > 0 {
		return ksThreshold
	}
	c := 1.95 * math.Sqrt(float64(nA+nB)/(float64(nA)*float64(nB)))
	if c < 0.1 {
		c = 0.1
	}
	return c
}

func compareTraces(pathA, pathB string, evA, evB []ipmio.Event) {
	fmt.Printf("%s: %d events   %s: %d events\n\n", pathA, len(evA), pathB, len(evB))

	rows := [][]string{{"op", "n(A)", "n(B)", "KS", "Wasserstein (s)", "verdict"}}
	reproducible := true
	compared := 0
	for op := ensembleio.OpOpen; op <= ensembleio.OpFsync; op++ {
		dA := analysis.Durations(evA, analysis.IsOp(op))
		dB := analysis.Durations(evB, analysis.IsOp(op))
		if dA.Len() < 20 || dB.Len() < 20 {
			continue
		}
		compared++
		ks := ensemble.KS(dA, dB)
		w := ensemble.Wasserstein(dA, dB)
		verdict := "same distribution"
		if ks >= ksLimit(dA.Len(), dB.Len()) {
			verdict = "DIFFERENT"
			reproducible = false
		}
		rows = append(rows, []string{
			op.String(), fmt.Sprint(dA.Len()), fmt.Sprint(dB.Len()),
			report.F(ks, 3), report.F(w, 3), verdict,
		})
	}
	report.Table(os.Stdout, rows)
	if compared == 0 {
		log.Fatal("no op type has enough events in both traces to compare")
	}

	// Mode alignment on the dominant op (the one with the most events).
	best := ensembleio.OpWrite
	bestN := 0
	for op := ensembleio.OpOpen; op <= ensembleio.OpFsync; op++ {
		if n := analysis.Durations(evA, analysis.IsOp(op)).Len(); n > bestN {
			best, bestN = op, n
		}
	}
	if bestN >= 50 {
		fmt.Printf("\nmode alignment (%s):\n", best)
		mA := modesOf(analysis.Durations(evA, analysis.IsOp(best)))
		mB := modesOf(analysis.Durations(evB, analysis.IsOp(best)))
		n := len(mA)
		if len(mB) < n {
			n = len(mB)
		}
		for i := 0; i < n; i++ {
			shift := math.Abs(mA[i]-mB[i]) / mA[i] * 100
			fmt.Printf("  mode %d: %.2fs vs %.2fs (%.1f%% shift)\n", i+1, mA[i], mB[i], shift)
		}
		if len(mA) != len(mB) {
			fmt.Printf("  mode count differs: %d vs %d\n", len(mA), len(mB))
		}
	}

	if reproducible {
		fmt.Println("\nverdict: ensembles statistically indistinguishable — same experiment, different run")
	} else {
		fmt.Println("\nverdict: ensembles DIFFER — not reproductions of the same conditions")
		os.Exit(1)
	}
}

func compareProfiles(pA, pB *tracefmt.Profile) {
	rows := [][]string{{"op", "mean(A)", "mean(B)", "p95(A)", "p95(B)", "verdict"}}
	bad := false
	for op := ensembleio.OpOpen; op <= ensembleio.OpFsync; op++ {
		hA, hB := pA.Duration(op), pB.Duration(op)
		if hA == nil || hB == nil || hA.Total() < 20 || hB.Total() < 20 {
			continue
		}
		verdict := "same"
		relMean := math.Abs(hA.Mean()-hB.Mean()) / hA.Mean()
		relP95 := math.Abs(hA.Quantile(0.95)-hB.Quantile(0.95)) / hA.Quantile(0.95)
		if relMean > 0.15 || relP95 > 0.25 {
			verdict = "DIFFERENT"
			bad = true
		}
		rows = append(rows, []string{
			op.String(),
			report.F(hA.Mean(), 3), report.F(hB.Mean(), 3),
			report.F(hA.Quantile(0.95), 3), report.F(hB.Quantile(0.95), 3),
			verdict,
		})
	}
	report.Table(os.Stdout, rows)
	if bad {
		fmt.Println("\nverdict: profiles DIFFER")
		os.Exit(1)
	}
	fmt.Println("\nverdict: profiles statistically indistinguishable")
}

func modesOf(d *ensemble.Dataset) []float64 {
	h := ensemble.NewHistogram(ensemble.LinearBins(0, d.Max()*1.01, 80))
	h.AddAll(d)
	var out []float64
	for _, m := range h.Modes(ensemble.ModeOpts{SmoothRadius: 2, MinProminence: 0.1, MinMass: 0.04}) {
		out = append(out, m.Center)
	}
	return out
}

func loadEvents(path string) []ipmio.Event {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close() //lint:allow(errclose) file opened read-only
	br := bufio.NewReader(f)
	first, err := br.Peek(1)
	if err != nil {
		log.Fatalf("%s: empty", path)
	}
	var events []ipmio.Event
	if first[0] == '{' {
		events, _, _, err = tracefmt.ReadJSONL(br)
	} else {
		events, _, _, err = tracefmt.ReadBinary(br)
	}
	if err != nil {
		log.Fatalf("%s: %v", path, err)
	}
	return events
}

func loadProfile(path string) *tracefmt.Profile {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close() //lint:allow(errclose) file opened read-only
	p, err := tracefmt.ReadProfile(f)
	if err != nil {
		log.Fatalf("%s: %v", path, err)
	}
	return p
}
