package tenancy

import (
	"strings"
	"testing"

	"ensembleio/internal/analysis"
	"ensembleio/internal/cluster"
	"ensembleio/internal/wldsl"
	"ensembleio/internal/workloads"
)

// writerSpec builds an N-to-1 bursty writer: reps cycles of
// barrier-fenced strided pwrites, the IOR shape the corpus uses.
func writerSpec(name string, tasks, reps int, transfer int64) *workloads.Spec {
	block := transfer * 4
	return &workloads.Spec{
		Name:  name,
		Tasks: tasks,
		Phases: []workloads.Phase{
			{Ops: []workloads.Op{{Op: "open"}}},
			{
				Name:   "rep%d",
				Repeat: reps,
				Ops: []workloads.Op{
					{Op: "barrier"},
					{Op: "pwrite", Bytes: transfer, Count: 4,
						Offset: &workloads.Offset{PerRank: block, PerIter: transfer, PerPhase: block * int64(tasks)}},
					{Op: "barrier"},
				},
			},
			{Ops: []workloads.Op{{Op: "close"}}},
		},
	}
}

// TestVictimAggressorRanking: a wide bursty writer co-scheduled on top
// of a smaller tenant must surface as the aggressor in the ranking,
// with the contended OSTs attributed. This is the load-bearing
// observability claim: the report localizes interference to a
// victim/aggressor pair and the shared devices, not just "things got
// slower".
func TestVictimAggressorRanking(t *testing.T) {
	cfg := Config{Machine: cluster.Franklin(), Seed: 11, Telemetry: true}
	tenants := []Tenant{
		{Name: "victim", Spec: writerSpec("victim", 16, 8, 16e6), StartSec: 0},
		{Name: "aggressor", Spec: writerSpec("aggressor", 64, 8, 16e6), StartSec: 0},
	}
	res, err := RunTenants(cfg, tenants)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(cfg, tenants, res, analysis.InterferenceConfig{})
	if err != nil {
		t.Fatal(err)
	}

	for _, tm := range rep.Tenants {
		t.Logf("%s: [%.2f %.2f] solo=%.2f slowdown=%.3f ioShare=%.3f", tm.Name, tm.StartSec, tm.EndSec, tm.SoloSec, tm.Slowdown, tm.IOTimeShare)
	}
	if len(rep.Ranking) == 0 {
		t.Fatal("fully overlapped co-run produced no victim/aggressor findings")
	}
	var hit *analysis.InterferencePair
	for i := range rep.Ranking {
		p := &rep.Ranking[i]
		if p.Victim == "victim" && p.Aggressor == "aggressor" {
			hit = p
			break
		}
	}
	if hit == nil {
		t.Fatalf("ranking %+v does not pair victim <- aggressor", rep.Ranking)
	}
	if hit.Slowdown <= 1 {
		t.Errorf("victim slowdown %.3f, want > 1", hit.Slowdown)
	}
	if hit.OverlapFrac <= 0 {
		t.Errorf("overlap fraction %.3f, want > 0", hit.OverlapFrac)
	}
	if len(hit.SharedOSTs) == 0 {
		t.Error("finding names no contended OSTs; attribution is vacuous")
	}
	if len(rep.Windows) == 0 {
		t.Error("overlapping tenants produced no contention windows")
	}
}

// TestCleanCoRunNoFindings: two tenants whose windows never overlap
// must produce an empty ranking and no contention windows — run-to-run
// platform noise alone (the shared background-traffic realization
// shifts when a neighbor is added) must not be reported as
// interference.
func TestCleanCoRunNoFindings(t *testing.T) {
	cfg := Config{Machine: cluster.Franklin(), Seed: 11}
	tenants := []Tenant{
		{Name: "early", Spec: writerSpec("early", 16, 2, 8e6), StartSec: 0},
		{Name: "late", Spec: writerSpec("late", 16, 2, 8e6), StartSec: 900},
	}
	res, err := RunTenants(cfg, tenants)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tenants[0].EndSec >= tenants[1].StartSec {
		t.Fatalf("test premise broken: early tenant runs to %.1fs, into late's window (start %.1fs)",
			res.Tenants[0].EndSec, tenants[1].StartSec)
	}
	rep, err := Analyze(cfg, tenants, res, analysis.InterferenceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Ranking) != 0 {
		t.Errorf("clean co-run reported findings: %+v", rep.Ranking)
	}
	if len(rep.Windows) != 0 {
		t.Errorf("clean co-run reported contention windows: %+v", rep.Windows)
	}
	for _, tm := range rep.Tenants {
		if tm.SoloSec <= 0 {
			t.Errorf("tenant %s: non-positive solo baseline %.3f", tm.Name, tm.SoloSec)
		}
	}
}

// TestPerTenantAccounting: the merged telemetry stream carries a
// namespaced counter family per tenant, and the per-tenant attributed
// write volume matches the tenant's own collector view.
func TestPerTenantAccounting(t *testing.T) {
	cfg := Config{Machine: cluster.Franklin(), Seed: 3, Telemetry: true}
	tenants := []Tenant{
		{Name: "a", Spec: writerSpec("a", 16, 2, 8e6), StartSec: 0},
		{Name: "b", Spec: writerSpec("b", 16, 2, 8e6), StartSec: 1},
	}
	res, err := RunTenants(cfg, tenants)
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry == nil {
		t.Fatal("telemetry requested but snapshot is nil")
	}
	seen := map[string]bool{}
	for _, c := range res.Telemetry.Counters {
		if rest, ok := strings.CutPrefix(c.Name, "tenant."); ok {
			name, _, _ := strings.Cut(rest, ".")
			seen[name] = true
		}
	}
	for _, tn := range tenants {
		if !seen[tn.Name] {
			t.Errorf("no tenant.%s.* counters in the merged stream", tn.Name)
		}
	}
	var tagged int
	for sp := range res.Spans.All() {
		if sp.Cat == "tenant" {
			tagged++
		}
	}
	if tagged != len(tenants) {
		t.Errorf("got %d tenant window spans, want %d", tagged, len(tenants))
	}
	for i := range res.Tenants {
		tr := &res.Tenants[i]
		if tr.EndSec <= tr.StartSec {
			t.Errorf("tenant %s: empty window [%.2f, %.2f]", tr.Name, tr.StartSec, tr.EndSec)
		}
		if len(tr.Run.Collector.Events) == 0 {
			t.Errorf("tenant %s: no trace events", tr.Name)
		}
	}
}

// TestTenantValidation: the compile step rejects the configurations
// that would silently corrupt attribution.
func TestTenantValidation(t *testing.T) {
	good := writerSpec("ok", 4, 1, 2e6)
	cases := map[string][]Tenant{
		"empty list":     {},
		"bad name":       {{Name: "a b", Spec: good}},
		"empty name":     {{Name: "", Spec: good}},
		"duplicate name": {{Name: "a", Spec: good}, {Name: "a", Spec: good}},
		"nil spec":       {{Name: "a", Spec: good}, {Name: "b"}},
		"negative start": {{Name: "a", Spec: good, StartSec: -1}},
	}
	for label, tenants := range cases {
		if _, err := RunTenants(Config{Machine: cluster.Franklin(), Seed: 1}, tenants); err == nil {
			t.Errorf("%s: RunTenants accepted invalid tenant list", label)
		}
	}
}

// poisonSpec passes validation but panics inside every rank body: it
// writes through a descriptor it has already closed.
const poisonSpec = `{
  "name": "write-after-close",
  "tasks": 4,
  "path": "/scratch/poison.dat",
  "phases": [
    {"ops": [{"op": "open"}, {"op": "close"}, {"op": "write", "bytes": 1000000}]}
  ]
}`

// TestPanickingTenantIsAnError: a tenant whose rank bodies panic fails
// the co-run and the solo baselines with an error carrying the panic
// message, instead of taking the process down.
func TestPanickingTenantIsAnError(t *testing.T) {
	poison, err := wldsl.Parse(strings.NewReader(poisonSpec))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Machine: cluster.Franklin(), Seed: 3, Telemetry: true}
	tenants := []Tenant{
		{Name: "good", Spec: writerSpec("good", 16, 2, 1<<20)},
		{Name: "poison", Spec: poison, StartSec: 1},
	}
	const msg = "posixio: bad file descriptor"
	res, err := RunTenants(cfg, tenants)
	if err == nil || !strings.Contains(err.Error(), msg) {
		t.Fatalf("RunTenants: err %v, want the rank body's panic message", err)
	}
	if res != nil {
		t.Error("failed co-run returned a result")
	}
	solo, err := SoloBaselines(cfg, tenants)
	if err == nil || !strings.Contains(err.Error(), msg) {
		t.Fatalf("SoloBaselines: err %v, want the rank body's panic message", err)
	}
	if solo != nil {
		t.Error("failed baselines returned makespans")
	}
}
