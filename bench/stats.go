package main

import (
	"math"

	"ensembleio/internal/ensemble"
)

// summary reduces a set of per-pass samples the way the benchmark
// reports a timing: median and quartiles, the sample count, and the
// highest percentile that still has at least tailMin samples beyond it
// (omitted when there are too few samples for any).
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	TailP  float64 `json:"tail_p,omitempty"`
	Tail   float64 `json:"tail,omitempty"`
}

// tailMin is how many samples must lie beyond a reported percentile.
const tailMin = 10

// tailLadder lists the percentiles a summary may report, highest first.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9}

func summarize(xs []float64) summary {
	d := ensemble.NewDataset(xs)
	s := summary{N: d.Len(), Median: d.Quantile(0.5), Q1: d.Quantile(0.25), Q3: d.Quantile(0.75)}
	if p, ok := tailPercentile(d.Len()); ok {
		s.TailP, s.Tail = p, d.Quantile(p)
	}
	return s
}

// tailPercentile is the highest ladder percentile with at least
// tailMin of n samples beyond it.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailLadder {
		if float64(n)*(1-p) >= tailMin-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// verdict is the outcome of comparing one metric between two sets.
type verdict string

const (
	within     verdict = "within"     // the medians differ by less than the bound
	regressed  verdict = "REGRESSED"  // b is worse by more than the bound
	better     verdict = "better"     // b is better by more than the bound
	unresolved verdict = "unresolved" // too few runs, or a run-to-run spread wider than the bound
)

// minRuns is the fewest runs a side of a comparison needs. The host's
// speed drifts between runs by more than the passes inside one run
// show, so only the spread between runs can tell a change from drift.
const minRuns = 3

// judge compares metric m between a baseline set of runs a and a
// candidate set b, one value per run. A difference counts when the
// medians differ by more than bound×|median(a)|, and never below
// m.Floor. With fewer than minRuns runs on a side, or a run-to-run
// spread wider than the bound, the difference cannot be resolved,
// unless every run of b reads better than every run of a. A gain also
// needs every run of b to read better, since drift between two sets
// run minutes apart can move a median past the bound.
func judge(m metricDef, a, b []float64) verdict {
	if len(a) < minRuns || len(b) < minRuns {
		return unresolved
	}
	sa, sb := summarize(a), summarize(b)
	if math.Max(sa.spread(), sb.spread()) > m.Bound {
		if allBetter(m.Better, a, b) {
			return better
		}
		return unresolved
	}
	worse := sb.Median - sa.Median
	if m.Better == "higher" {
		worse = -worse
	}
	allowed := math.Max(m.Bound*math.Abs(sa.Median), m.Floor)
	switch {
	case worse > allowed:
		return regressed
	case -worse > allowed && allBetter(m.Better, a, b):
		return better
	case -worse > allowed:
		return unresolved
	}
	return within
}

func allBetter(direction string, a, b []float64) bool {
	aLo, aHi := minMax(a)
	bLo, bHi := minMax(b)
	if direction == "higher" {
		return bLo > aHi
	}
	return bHi < aLo
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}
