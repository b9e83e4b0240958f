package main

import (
	"errors"
	"fmt"
	"io"
	"math"

	"ensembleio"
	"ensembleio/internal/analysis"
	"ensembleio/internal/ensemble"
	"ensembleio/internal/ipmio"
	"ensembleio/internal/report"
	"ensembleio/internal/tracefmt"
)

// compareTraces writes the per-op comparison of two traces, judged by
// analysis.CompareEvents, and reports whether they are reproductions.
func compareTraces(w io.Writer, paths []string, kinds []kind) (bool, error) {
	var evs [2][]ipmio.Event
	for i, p := range paths {
		var err error
		if evs[i], _, err = loadTrace(p, kinds[i]); err != nil {
			return false, err
		}
	}
	evA, evB := evs[0], evs[1]
	fmt.Fprintf(w, "%s: %d events   %s: %d events\n\n", paths[0], len(evA), paths[1], len(evB))

	res := analysis.CompareEvents(evA, evB, 0, 0)
	rows := [][]string{{"op", "n(A)", "n(B)", "KS", "Wasserstein (s)", "verdict"}}
	for _, oc := range res.Ops {
		verdict := "same distribution"
		if !oc.Same {
			verdict = "DIFFERENT"
		}
		rows = append(rows, []string{
			oc.Op.String(), fmt.Sprint(oc.NA), fmt.Sprint(oc.NB),
			report.F(oc.KS, 3), report.F(oc.Wasserstein, 3), verdict,
		})
	}
	report.Table(w, rows)
	if len(res.Ops) == 0 {
		return false, errors.New("no op type has enough events in both traces to compare")
	}

	// Mode alignment on the dominant op: the one with the most events
	// whose durations are not all zero.
	best := ensembleio.OpWrite
	bestN := 0
	for op := ensembleio.OpOpen; op <= ensembleio.OpFsync; op++ {
		if d := analysis.Durations(evA, analysis.IsOp(op)); d.Len() > bestN && d.Max() > 0 {
			best, bestN = op, d.Len()
		}
	}
	if bestN >= 50 {
		fmt.Fprintf(w, "\nmode alignment (%s):\n", best)
		mA := modesOf(analysis.Durations(evA, analysis.IsOp(best)))
		mB := modesOf(analysis.Durations(evB, analysis.IsOp(best)))
		for i := range min(len(mA), len(mB)) {
			shift := math.Abs(mA[i]-mB[i]) / mA[i] * 100
			fmt.Fprintf(w, "  mode %d: %.2fs vs %.2fs (%.1f%% shift)\n", i+1, mA[i], mB[i], shift)
		}
		if len(mA) != len(mB) {
			fmt.Fprintf(w, "  mode count differs: %d vs %d\n", len(mA), len(mB))
		}
	}

	if res.Reproducible {
		fmt.Fprintln(w, "\nverdict: ensembles statistically indistinguishable — same experiment, different run")
	} else {
		fmt.Fprintln(w, "\nverdict: ensembles DIFFER — not reproductions of the same conditions")
	}
	return res.Reproducible, nil
}

// compareProfiles writes the per-op comparison of two profiles and
// reports whether they agree.
func compareProfiles(w io.Writer, paths []string) (bool, error) {
	var ps [2]*tracefmt.Profile
	for i, p := range paths {
		var err error
		if ps[i], err = readFile(p, tracefmt.ReadProfile); err != nil {
			return false, err
		}
	}
	pA, pB := ps[0], ps[1]
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
	report.Table(w, rows)
	if bad {
		fmt.Fprintln(w, "\nverdict: profiles DIFFER")
		return false, nil
	}
	fmt.Fprintln(w, "\nverdict: profiles statistically indistinguishable")
	return true, nil
}

// modesOf returns the centers of d's modes; durations that are all
// zero have none.
func modesOf(d *ensemble.Dataset) []float64 {
	if d.Len() == 0 || d.Max() <= 0 {
		return nil
	}
	h := ensemble.NewHistogram(ensemble.LinearBins(0, d.Max()*1.01, 80))
	h.AddAll(d)
	var out []float64
	for _, m := range h.Modes(ensemble.ModeOpts{SmoothRadius: 2, MinProminence: 0.1, MinMass: 0.04}) {
		out = append(out, m.Center)
	}
	return out
}
