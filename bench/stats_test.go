package main

import (
	"math"
	"testing"
)

func TestSummarizeMedianAndQuartiles(t *testing.T) {
	s := summarize([]float64{5, 1, 4, 2, 3})
	if s.N != 5 || s.Median != 3 || s.Q1 != 2 || s.Q3 != 4 {
		t.Fatalf("summary %+v, want n 5, median 3, quartiles 2 and 4", s)
	}
	if s.TailP != 0 {
		t.Fatalf("5 samples reported a tail percentile %v", s.TailP)
	}
}

func TestTailPercentileNeedsTenSamplesBeyondIt(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64 // 0: none
	}{{1, 0}, {9, 0}, {99, 0}, {100, 0.9}, {199, 0.9}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {10000, 0.999}} {
		p, ok := tailPercentile(c.n)
		if ok != (c.want != 0) || p != c.want {
			t.Errorf("n=%d: tail percentile %v (ok %v), want %v", c.n, p, ok, c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := summarize(xs)
	if s.TailP != 0.9 || math.Abs(s.Tail-90.1) > 1e-9 {
		t.Fatalf("100 samples 1..100: tail p%v = %v, want p0.9 = 90.1", s.TailP, s.Tail)
	}
}

func TestJudgeAgainstTheBound(t *testing.T) {
	// tight is three runs within ±1% of m.
	tight := func(m float64) []float64 { return []float64{m * 0.99, m, m * 1.01} }
	lower := metricDef{Name: "t", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "r", Better: "higher", Bound: 0.1}
	setup := metricDef{Name: "s", Better: "lower", Bound: 0.25, Floor: 0.1}
	drifting := []float64{0.6, 1, 1.4} // run-to-run spread 40%, wider than the bound
	for _, c := range []struct {
		name string
		m    metricDef
		a, b []float64
		want verdict
	}{
		{"lower, slightly worse", lower, tight(1), tight(1.05), within},
		{"lower, much worse", lower, tight(1), tight(1.2), regressed},
		{"lower, slightly better", lower, tight(1), tight(0.95), within},
		{"lower, much better", lower, tight(1), tight(0.5), better},
		{"higher, slightly worse", higher, tight(10), tight(9.5), within},
		{"higher, much worse", higher, tight(10), tight(8.5), regressed},
		{"higher, much better", higher, tight(10), tight(12), better},
		{"much better median, runs overlap", lower, []float64{0.95, 1, 1.05}, []float64{0.8, 0.82, 0.96}, unresolved},
		{"runs drift more than the bound", lower, drifting, tight(1.3), unresolved},
		{"drifting, every run better", lower, drifting, tight(0.5), better},
		{"one run a side", lower, []float64{1}, []float64{2}, unresolved},
		{"two runs a side, every run better", lower, []float64{1, 1}, []float64{0.5, 0.5}, unresolved},
		{"below the absolute floor", setup, tight(0.01), tight(0.05), within},
		{"above the absolute floor", setup, tight(0.01), tight(0.2), regressed},
	} {
		if got := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}
