package workloads_test

import (
	"path/filepath"
	"testing"

	"ensembleio/internal/cluster"
	"ensembleio/internal/wldsl"
	"ensembleio/internal/workloads"
)

// TestCorpusEventCounts pins the engine's exact work for every corpus
// spec at seed 1: how many events were scheduled and popped. The
// values were recorded with ranks as coroutines; the continuation
// executor must schedule every event in the same (time, sequence)
// slot, so a reordered, extra or missing schedule fails here.
func TestCorpusEventCounts(t *testing.T) {
	want := map[string][2]int64{ // spec: {scheduled, popped}
		"checkpoint-bursty.json": {2733, 2733},
		"gcrm-aligned.json":      {83329, 83329},
		"gcrm-baseline.json":     {89277, 89277},
		"gcrm-collective.json":   {84647, 84647},
		"gcrm-metaagg.json":      {81376, 81376},
		"gcrm-twostage.json":     {22231, 22231},
		"ior-fpp.json":           {285, 285},
		"ior-shared.json":        {285, 285},
		"ior-wide.json":          {13314, 13314},
		"madbench.json":          {14363, 14363},
		"mixed-rw.json":          {20605, 20605},
	}
	names, err := filepath.Glob("../../testdata/scenarios/workloads/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != len(want) {
		t.Errorf("corpus has %d specs, pinned %d: pin the new spec's counts", len(names), len(want))
	}
	for _, path := range names {
		name := filepath.Base(path)
		s, err := wldsl.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		p, err := workloads.Compile(s)
		if err != nil {
			t.Fatal(err)
		}
		tel := p.Run(workloads.RunConfig{Machine: cluster.Franklin(), Seed: 1, Telemetry: true}).Telemetry
		got := [2]int64{int64(tel.Counter("sim.events_scheduled")), int64(tel.Counter("sim.events_popped"))}
		if w, ok := want[name]; !ok || got != w {
			t.Errorf("%s: {scheduled, popped} = %v, want %v", name, got, w)
		}
	}
}
