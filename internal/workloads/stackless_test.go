package workloads

import (
	"runtime"
	"testing"
	"time"
)

// settledGoroutines returns the goroutine count once it stops
// changing, so a goroutine a previous test left exiting does not skew
// a before/during comparison.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
	return n
}

// TestRanksAreStackless runs a 4,096-rank job and counts goroutines
// from inside an event while every rank is parked mid-run: a rank is
// state on the event loop, not an execution context, so the count is
// the one before Run.
func TestRanksAreStackless(t *testing.T) {
	const tasks = 4096
	spec := &Spec{
		Name:  "stackless",
		Tasks: tasks,
		Path:  "/scratch/stackless.dat",
		Phases: []Phase{
			{Ops: []Op{{Op: "open"}, {Op: "barrier"}}},
			{Ops: []Op{
				{Op: "pwrite", Bytes: 4e6, Offset: &Offset{PerRank: 4e6}},
				{Op: "barrier"},
				{Op: "close"},
			}},
		},
	}
	p, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	m := quiet()
	s := NewSession(SessionConfig{Machine: m, Nodes: (tasks + m.CoresPerNode - 1) / m.CoresPerNode, Seed: 1})
	j := s.AddJob(p, TenantJobConfig{Seed: 1})

	before := settledGoroutines()
	during, live := -1, -1
	s.eng.At(1e-3, func() {
		during = runtime.NumGoroutine()
		live = tasks - j.finished
	})
	s.Run()

	if live != tasks {
		t.Fatalf("%d of %d ranks live at the probe, want all: the probe is not mid-run", live, tasks)
	}
	if during != before {
		t.Errorf("%d goroutines with %d ranks parked, want %d (the count before Run)", during, tasks, before)
	}
	if run := j.Finish(); len(run.Collector.Events) != 3*tasks {
		t.Errorf("%d trace events, want %d", len(run.Collector.Events), 3*tasks)
	}
}
