package workloads

import (
	"runtime"
	"testing"

	"ensembleio/internal/cluster"
)

// TestGCRMAllocatesLittlePerRank is the per-rank memory budget of a
// traced run: one 4,096-rank GCRM baseline, telemetry off, measured as
// bytes and heap objects allocated per rank. A trace event that grows
// past 48 bytes, engine lanes that grow by append instead of being
// reserved at launch, or per-rank state allocated one object per rank
// instead of one slice per job each break it.
func TestGCRMAllocatesLittlePerRank(t *testing.T) {
	const tasks = 4096
	cfg := GCRMConfig{Machine: cluster.Franklin(), Tasks: tasks, Seed: 1}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	run := RunGCRM(cfg)
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / tasks
	objects := float64(after.Mallocs-before.Mallocs) / tasks
	t.Logf("GCRM %d ranks, %d events: %.0f B and %.1f objects per rank", tasks, len(run.Collector.Events), bytes, objects)
	// ~10% above the measured 2,538 B and 19.8 objects per rank (the
	// layout before the 48-byte event, lane reservation and dense
	// per-rank slices measured 3,454 B and 28.7).
	const budgetBytes, budgetObjects = 2800, 22
	if bytes > budgetBytes {
		t.Errorf("GCRM allocates %.0f B per rank, budget %d B", bytes, budgetBytes)
	}
	if objects > budgetObjects {
		t.Errorf("GCRM allocates %.1f objects per rank, budget %d", objects, budgetObjects)
	}
}

// TestLaunchReservesEngineLanes: launching a job reserves both engine
// lanes for its ranks, and a GCRM run of a few hundred ranks — which
// wakes every rank at one instant and parks every rank on the heap at
// once — never grows either lane past that reservation.
func TestLaunchReservesEngineLanes(t *testing.T) {
	const tasks = 320
	m := cluster.Franklin()
	p, err := Compile(GCRMSpec(GCRMConfig{Tasks: tasks}))
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(SessionConfig{Machine: m, Nodes: (tasks + m.CoresPerNode - 1) / m.CoresPerNode, Seed: 1})
	s.AddJob(p, TenantJobConfig{Seed: 1})
	var nowCap, heapCap int
	s.eng.At(0, func() { nowCap, heapCap = s.eng.LaneCaps() }) // the first event: after launch
	s.Run()

	if nowCap < tasks || heapCap < tasks {
		t.Fatalf("lane capacities %d (now) and %d (heap) at launch, want both >= %d ranks", nowCap, heapCap, tasks)
	}
	if hw := s.eng.HeapHighWater(); hw < tasks {
		t.Fatalf("high water %d events, want >= %d: the run never filled the lanes", hw, tasks)
	}
	if n, h := s.eng.LaneCaps(); n != nowCap || h != heapCap {
		t.Errorf("lane capacities grew from %d/%d at launch to %d/%d", nowCap, heapCap, n, h)
	}
}
