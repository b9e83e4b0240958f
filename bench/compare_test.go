package main

import (
	"fmt"
	"path/filepath"
	"testing"
)

// writeSet writes n results files under dir/<i>/results.json, each
// holding every workload with the given throughput and digest.
func writeSet(t *testing.T, dir string, n int, rate float64, digest string) {
	t.Helper()
	for i := 0; i < n; i++ {
		res := results{Seed: 1, Workloads: map[string]*record{}}
		for _, w := range allWorkloads {
			rec := &record{Workload: w.name, Seed: 1, Attempted: 10, Metrics: map[string]metricValue{},
				Digests: map[string]string{"scenario": digest}}
			for _, m := range endToEnd {
				rec.Metrics[m.Name] = metricValue{Value: 1 + 0.001*float64(i), Unit: m.Unit}
			}
			rec.Metrics["scenarios_per_s"] = metricValue{Value: rate * (1 + 0.01*float64(i)), Unit: "1/s"}
			res.Workloads[w.name] = rec
		}
		if err := writeJSON(filepath.Join(dir, fmt.Sprint(i), "results.json"), res); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompareJudgesSetsOfRuns(t *testing.T) {
	root := t.TempDir()
	set := func(name string, n int, rate float64, digest string) string {
		dir := filepath.Join(root, name)
		writeSet(t, dir, n, rate, digest)
		return dir
	}
	base := set("base", 3, 10, "d")
	for _, c := range []struct {
		name string
		b    string
		want int
	}{
		{"same code", set("same", 3, 10, "d"), 0},
		{"throughput halved", set("slow", 3, 5, "d"), 1},
		{"output digest changed", set("other", 3, 10, "e"), 1},
		// One run cannot resolve a difference, so it cannot regress.
		{"one run, throughput halved", filepath.Join(set("single", 1, 5, "d"), "0", "results.json"), 0},
	} {
		if got := runCompare([]string{base, c.b}); got != c.want {
			t.Errorf("%s: -compare exit status %d, want %d", c.name, got, c.want)
		}
	}
	if got := runCompare([]string{base, filepath.Join(root, "missing")}); got != 2 {
		t.Errorf("missing set: exit status %d, want 2", got)
	}
}

func TestCoveredIsTheUnionOfSpans(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Name: "a", StartS: 0, EndS: 2},
		{Name: "b", StartS: 1, EndS: 3}, // overlaps a
		{Name: "a", StartS: 5, EndS: 6},
		{Name: "other", StartS: 3, EndS: 5}, // not asked for
	}
	if got := tr.covered([]string{"a", "b"}); got != 4 {
		t.Fatalf("covered %v s, want 4 s", got)
	}
}
