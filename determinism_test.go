package ensembleio_test

// The determinism regression suite. internal/sim promises bit-identical
// simulations for a given seed "regardless of GOMAXPROCS"; the paper's
// reproduction rests on that promise, so it is pinned here at the
// strongest possible level: the *serialized bytes* of every tracefmt
// encoding (binary trace, JSONL trace, profile JSON) must be identical
// across repeated runs and across scheduler configurations. The
// complementary static side of the contract is enforced by
// `ensemblelint` (internal/lint).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"ensembleio"
)

// runAndSerialize executes one seeded IOR workload (trace mode plus a
// second profile-mode run) and returns every persistent encoding of
// the results.
func runAndSerialize(t *testing.T, seed int64) map[string][]byte {
	t.Helper()
	cfg := ensembleio.IORConfig{
		Machine: ensembleio.Franklin(), Tasks: 16, Reps: 2,
		BlockBytes: 32e6, TransferBytes: 8e6, Seed: seed,
	}
	run := ensembleio.RunIOR(cfg)

	out := make(map[string][]byte)
	var bin, jsonl bytes.Buffer
	if err := ensembleio.SaveTrace(&bin, run); err != nil {
		t.Fatalf("SaveTrace: %v", err)
	}
	if err := ensembleio.SaveTraceJSON(&jsonl, run); err != nil {
		t.Fatalf("SaveTraceJSON: %v", err)
	}
	out["trace.bin"] = bin.Bytes()
	out["trace.jsonl"] = jsonl.Bytes()
	out["wall"] = []byte(fmt.Sprintf("%v", run.Wall))

	pcfg := cfg
	pcfg.Mode = ensembleio.ProfileMode
	prun := ensembleio.RunIOR(pcfg)
	profile, err := ensembleio.ProfileOf(prun)
	if err != nil {
		t.Fatalf("ProfileOf: %v", err)
	}
	var pjson bytes.Buffer
	if err := ensembleio.SaveProfile(&pjson, profile); err != nil {
		t.Fatalf("SaveProfile: %v", err)
	}
	out["profile.json"] = pjson.Bytes()
	return out
}

func assertIdentical(t *testing.T, label string, a, b map[string][]byte) {
	t.Helper()
	for name, want := range a {
		got := b[name]
		if !bytes.Equal(want, got) {
			i := 0
			for i < len(want) && i < len(got) && want[i] == got[i] {
				i++
			}
			t.Errorf("%s: %s differs (len %d vs %d, first divergence at byte %d)",
				label, name, len(want), len(got), i)
		}
	}
}

// TestSeededRunsAreByteIdentical runs the same seeded workload twice
// and demands byte-identical serialized artifacts.
func TestSeededRunsAreByteIdentical(t *testing.T) {
	a := runAndSerialize(t, 7)
	b := runAndSerialize(t, 7)
	assertIdentical(t, "same seed, repeated run", a, b)
	if len(a["trace.bin"]) == 0 || len(a["trace.jsonl"]) == 0 {
		t.Fatal("serialized traces are empty; the determinism check is vacuous")
	}
}

// TestDifferentSeedsDiffer guards the guard: if two different seeds
// produced identical traces, the identity assertions above would be
// passing trivially.
func TestDifferentSeedsDiffer(t *testing.T) {
	a := runAndSerialize(t, 7)
	b := runAndSerialize(t, 8)
	if bytes.Equal(a["trace.bin"], b["trace.bin"]) {
		t.Error("different seeds produced identical binary traces")
	}
}

// sweepArtifacts runs the Figure 2 transfer sweep through the runpool
// executor at the given worker count and serializes every artifact it
// produces: the per-point summary line, each run's binary and JSONL
// trace, and each run's profile JSON (from a parallel profile-mode
// sweep). Any scheduling leak — results reduced in completion order,
// shared state between concurrent runs — shows up as a byte diff.
func sweepArtifacts(t *testing.T, workers int) []byte {
	t.Helper()
	base := ensembleio.IORConfig{
		Machine: ensembleio.Franklin(), Tasks: 16, Reps: 2, BlockBytes: 32e6,
	}
	ks := []int{1, 2, 4}
	seeds := []int64{3, 5, 9}

	var buf bytes.Buffer
	for _, pt := range ensembleio.IORTransferSweep(base, ks, seeds, workers, nil) {
		fmt.Fprintf(&buf, "k=%d transfer=%d mean=%v\n", pt.K, pt.TransferBytes, pt.MeanRateMBps)
		for _, run := range pt.Runs {
			if err := ensembleio.SaveTrace(&buf, run); err != nil {
				t.Fatalf("SaveTrace: %v", err)
			}
			if err := ensembleio.SaveTraceJSON(&buf, run); err != nil {
				t.Fatalf("SaveTraceJSON: %v", err)
			}
		}
	}

	pbase := base
	pbase.Mode = ensembleio.ProfileMode
	for _, pt := range ensembleio.IORTransferSweep(pbase, ks, seeds, workers, nil) {
		for _, run := range pt.Runs {
			profile, err := ensembleio.ProfileOf(run)
			if err != nil {
				t.Fatalf("ProfileOf: %v", err)
			}
			if err := ensembleio.SaveProfile(&buf, profile); err != nil {
				t.Fatalf("SaveProfile: %v", err)
			}
		}
	}
	return buf.Bytes()
}

// TestSweepDeterministicAcrossWorkerCounts is the runpool determinism
// guarantee at its strongest: the serialized bytes of every trace and
// profile produced by IORTransferSweep must be identical whether the
// ensemble ran on one worker (-j 1, the plain sequential loop) or was
// fanned across four (-j 4), and whether GOMAXPROCS allows real
// parallelism or not.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	sequential := sweepArtifacts(t, 1)
	if len(sequential) == 0 {
		t.Fatal("sweep produced no serialized artifacts; the check is vacuous")
	}
	prev := runtime.GOMAXPROCS(4) // force real concurrency even on 1-core CI
	defer runtime.GOMAXPROCS(prev)
	for _, workers := range []int{4, 0} {
		parallel := sweepArtifacts(t, workers)
		if !bytes.Equal(sequential, parallel) {
			i := 0
			for i < len(sequential) && i < len(parallel) && sequential[i] == parallel[i] {
				i++
			}
			t.Errorf("-j 1 vs -j %d: artifacts differ (len %d vs %d, first divergence at byte %d)",
				workers, len(sequential), len(parallel), i)
		}
	}
}

// TestDeterminismAcrossGOMAXPROCS runs the workload under
// GOMAXPROCS=1 and under GOMAXPROCS=4 (forced, so the check bites
// even on single-core CI runners): the engine's lock-step process
// scheduling must make the serialized results byte-identical either
// way.
func TestDeterminismAcrossGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	single := runAndSerialize(t, 7)
	runtime.GOMAXPROCS(4)
	parallel := runAndSerialize(t, 7)
	assertIdentical(t, "GOMAXPROCS=1 vs GOMAXPROCS=4", single, parallel)
}

// faultedArtifacts parses the all-five-fault-types scenario from its
// JSON spec form (the same path the CLIs' -faults flag exercises) and
// runs a seeded ensemble of faulted IOR simulations through RunMany at
// the given worker count, serializing every trace byte produced.
func faultedArtifacts(t *testing.T, workers int) []byte {
	t.Helper()
	const spec = `{
	  "name": "determinism",
	  "faults": [
	    {"type": "slow-ost", "ost": 3, "factor": 0.05},
	    {"type": "flaky-ost", "ost": 1, "start_sec": 1, "period_sec": 4, "stall_sec": 1},
	    {"type": "slow-node-link", "node": 2, "factor": 0.1},
	    {"type": "mds-brownout", "concurrency": 4, "slow_prob": 0.2, "slow_lo_sec": 0.1, "slow_hi_sec": 0.5},
	    {"type": "background-bursts", "mbps": 8000, "on_sec": 2, "off_sec": 3}
	  ]
	}`
	scenario, err := ensembleio.ParseScenario(strings.NewReader(spec))
	if err != nil {
		t.Fatalf("ParseScenario: %v", err)
	}
	seeds := []int64{3, 5, 9}
	runs := ensembleio.RunMany(workers, seeds, func(seed int64) *ensembleio.Run {
		return ensembleio.RunIOR(ensembleio.IORConfig{
			Machine: ensembleio.Franklin(), Tasks: 16, Reps: 2,
			BlockBytes: 32e6, TransferBytes: 8e6,
			FilePerProcess: true, StripeCount: 1,
			Faults: scenario, Seed: seed,
		})
	})
	var buf bytes.Buffer
	for _, run := range runs {
		fmt.Fprintf(&buf, "%s wall=%v\n", run.Name, run.Wall)
		if err := ensembleio.SaveTrace(&buf, run); err != nil {
			t.Fatalf("SaveTrace: %v", err)
		}
		if err := ensembleio.SaveTraceJSON(&buf, run); err != nil {
			t.Fatalf("SaveTraceJSON: %v", err)
		}
	}
	return buf.Bytes()
}

// telemetryArtifacts runs a seeded ensemble of faulted,
// telemetry-enabled IOR simulations at the given worker count and
// serializes every telemetry encoding: the metrics snapshot JSON, the
// span JSONL, and the Chrome trace export. Telemetry rides the same
// virtual-time determinism contract as the traces, so these bytes must
// not depend on the worker count either.
func telemetryArtifacts(t *testing.T, workers int) []byte {
	t.Helper()
	const spec = `{
	  "faults": [
	    {"type": "flaky-ost", "ost": 1, "start_sec": 1, "period_sec": 4, "stall_sec": 1},
	    {"type": "background-bursts", "mbps": 8000, "on_sec": 2, "off_sec": 3}
	  ]
	}`
	scenario, err := ensembleio.ParseScenario(strings.NewReader(spec))
	if err != nil {
		t.Fatalf("ParseScenario: %v", err)
	}
	seeds := []int64{3, 5, 9}
	runs := ensembleio.RunMany(workers, seeds, func(seed int64) *ensembleio.Run {
		return ensembleio.RunIOR(ensembleio.IORConfig{
			Machine: ensembleio.Franklin(), Tasks: 16, Reps: 2,
			BlockBytes: 32e6, TransferBytes: 8e6,
			Faults: scenario, Seed: seed, Telemetry: true,
		})
	})
	var buf bytes.Buffer
	for _, run := range runs {
		if err := ensembleio.SaveTelemetry(&buf, run); err != nil {
			t.Fatalf("SaveTelemetry: %v", err)
		}
		if err := ensembleio.SaveSpans(&buf, run); err != nil {
			t.Fatalf("SaveSpans: %v", err)
		}
		if err := ensembleio.SaveChromeTrace(&buf, run); err != nil {
			t.Fatalf("SaveChromeTrace: %v", err)
		}
	}
	return buf.Bytes()
}

// TestTelemetryDeterministicAcrossWorkerCounts pins the tentpole
// telemetry invariant: metric snapshots, span streams, and the
// Perfetto export are byte-identical whether the faulted ensemble ran
// sequentially or fanned across four workers, and across repeats.
func TestTelemetryDeterministicAcrossWorkerCounts(t *testing.T) {
	sequential := telemetryArtifacts(t, 1)
	if len(sequential) == 0 {
		t.Fatal("telemetry runs produced no serialized artifacts; the check is vacuous")
	}
	repeat := telemetryArtifacts(t, 1)
	if !bytes.Equal(sequential, repeat) {
		t.Error("repeated -j 1 telemetry artifacts differ")
	}
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	parallel := telemetryArtifacts(t, 4)
	if !bytes.Equal(sequential, parallel) {
		i := 0
		for i < len(sequential) && i < len(parallel) && sequential[i] == parallel[i] {
			i++
		}
		t.Errorf("telemetry -j 1 vs -j 4: artifacts differ (len %d vs %d, first divergence at byte %d)",
			len(sequential), len(parallel), i)
	}
}

// repeatedPhaseArtifacts runs a seeded ensemble of GCRM collective
// dumps — the workload whose per-epoch write phases repeat identically
// — through RunMany at the given worker count.
func repeatedPhaseArtifacts(t *testing.T, workers int) []byte {
	t.Helper()
	seeds := []int64{3, 5, 9}
	runs := ensembleio.RunMany(workers, seeds, func(seed int64) *ensembleio.Run {
		return ensembleio.RunGCRM(ensembleio.GCRMConfig{
			Machine: ensembleio.Franklin(), Tasks: 640, Aggregators: 80, Seed: seed,
		})
	})
	var buf bytes.Buffer
	for _, run := range runs {
		fmt.Fprintf(&buf, "%s wall=%v\n", run.Name, run.Wall)
		if err := ensembleio.SaveTrace(&buf, run); err != nil {
			t.Fatalf("SaveTrace: %v", err)
		}
	}
	return buf.Bytes()
}

// TestRepeatedPhaseRunsDeterministicAcrossWorkerCounts pins the
// repeated-phase GCRM ensemble into the determinism contract: the
// ensemble must serialize identically at -j 1 and -j 4 — each run's
// fabric is run-local, so worker scheduling must not be able to leak
// state between runs.
func TestRepeatedPhaseRunsDeterministicAcrossWorkerCounts(t *testing.T) {
	sequential := repeatedPhaseArtifacts(t, 1)
	if len(sequential) == 0 {
		t.Fatal("repeated-phase runs produced no serialized artifacts; the check is vacuous")
	}
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	parallel := repeatedPhaseArtifacts(t, 4)
	if !bytes.Equal(sequential, parallel) {
		i := 0
		for i < len(sequential) && i < len(parallel) && sequential[i] == parallel[i] {
			i++
		}
		t.Errorf("repeated-phase -j 1 vs -j 4: artifacts differ (len %d vs %d, first divergence at byte %d)",
			len(sequential), len(parallel), i)
	}
}

// TestFaultScenariosDeterministicAcrossWorkerCounts extends the
// determinism contract to fault injection: stall windows and burst
// schedules are pure functions of virtual time and the brownout draws
// from the run's seeded RNG, so the same scenario JSON plus the same
// seeds must serialize byte-identically at -j 1 and -j 4.
func TestFaultScenariosDeterministicAcrossWorkerCounts(t *testing.T) {
	sequential := faultedArtifacts(t, 1)
	if len(sequential) == 0 {
		t.Fatal("faulted sweep produced no serialized artifacts; the check is vacuous")
	}
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	parallel := faultedArtifacts(t, 4)
	if !bytes.Equal(sequential, parallel) {
		i := 0
		for i < len(sequential) && i < len(parallel) && sequential[i] == parallel[i] {
			i++
		}
		t.Errorf("faulted -j 1 vs -j 4: artifacts differ (len %d vs %d, first divergence at byte %d)",
			len(sequential), len(parallel), i)
	}
}

// generatedSpecArtifacts pushes a batch of seeded generator specs
// (internal/wldsl.Generate — the fuzz side of the workload DSL)
// through the spec interpreter via RunMany at the given worker count,
// and serializes every artifact each run
// produces. The programs are compiled once, up front: compilation is
// pure, so sharing a Program between runs must also be safe.
func generatedSpecArtifacts(t *testing.T, workers int) []byte {
	t.Helper()
	seeds := []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	progs := make([]*ensembleio.WorkloadProgram, len(seeds))
	for i, seed := range seeds {
		spec := ensembleio.GenerateWorkload(seed)
		prog, err := ensembleio.CompileWorkload(spec)
		if err != nil {
			t.Fatalf("seed %d (%s): %v", seed, spec.Name, err)
		}
		progs[i] = prog
	}
	m := ensembleio.Franklin()
	runs := ensembleio.RunMany(workers, seeds, func(seed int64) *ensembleio.Run {
		return progs[seed].Run(ensembleio.WorkloadRunConfig{
			Machine: m, Seed: 100 + seed, Telemetry: true,
		})
	})
	var buf bytes.Buffer
	for _, run := range runs {
		fmt.Fprintf(&buf, "%s wall=%v\n", run.Name, run.Wall)
		if err := ensembleio.SaveTrace(&buf, run); err != nil {
			t.Fatalf("SaveTrace: %v", err)
		}
		if err := ensembleio.SaveTraceJSON(&buf, run); err != nil {
			t.Fatalf("SaveTraceJSON: %v", err)
		}
		if err := ensembleio.SaveTelemetry(&buf, run); err != nil {
			t.Fatalf("SaveTelemetry: %v", err)
		}
		if err := ensembleio.SaveSpans(&buf, run); err != nil {
			t.Fatalf("SaveSpans: %v", err)
		}
	}
	return buf.Bytes()
}

// TestGeneratedSpecsDeterministic extends the determinism contract to
// the workload DSL's generated corpus: every spec the seeded generator
// emits must serialize byte-identically across worker counts (-j 1 vs
// -j 4) — the same gate the paper workloads pass, applied to the
// grammar's random corner cases in bulk.
func TestGeneratedSpecsDeterministic(t *testing.T) {
	sequential := generatedSpecArtifacts(t, 1)
	if len(sequential) == 0 {
		t.Fatal("generated specs produced no serialized artifacts; the check is vacuous")
	}
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	parallel := generatedSpecArtifacts(t, 4)
	if !bytes.Equal(sequential, parallel) {
		i := 0
		for i < len(sequential) && i < len(parallel) && sequential[i] == parallel[i] {
			i++
		}
		t.Errorf("generated specs -j 1 vs -j 4: artifacts differ (len %d vs %d, first divergence at byte %d)",
			len(sequential), len(parallel), i)
	}
}

// tenancyArtifacts runs a batch of seeded two-tenant co-runs — the
// generator's adversarial tiny-transfer family co-scheduled against an
// arbitrary generated peer — through a worker pool, analyzes each for
// interference (which re-simulates both solo baselines), and
// serializes every artifact: per-tenant binary traces, the merged
// telemetry snapshot and span stream, and the interference report
// JSON.
func tenancyArtifacts(t *testing.T, workers int) []byte {
	t.Helper()
	seeds := []int64{0, 1, 2, 3}
	m := ensembleio.Franklin()
	out := make([][]byte, len(seeds))
	ensembleio.RunMany(workers, []int{0, 1, 2, 3}, func(i int) *ensembleio.Run {
		seed := seeds[i]
		cfg := ensembleio.TenancyConfig{Machine: m, Seed: 50 + seed, Telemetry: true}
		tenants := []ensembleio.Tenant{
			{Name: "adv", Spec: ensembleio.GenerateAdversarialWorkload(seed)},
			{Name: "peer", Spec: ensembleio.GenerateWorkload(seed + 100), StartSec: 1},
		}
		res, err := ensembleio.RunTenants(cfg, tenants)
		if err != nil {
			t.Errorf("seed %d: RunTenants: %v", seed, err)
			return nil
		}
		rep, err := ensembleio.AnalyzeInterference(cfg, tenants, res, ensembleio.InterferenceConfig{})
		if err != nil {
			t.Errorf("seed %d: AnalyzeInterference: %v", seed, err)
			return nil
		}
		var buf bytes.Buffer
		for j := range res.Tenants {
			tr := &res.Tenants[j]
			fmt.Fprintf(&buf, "%s seed=%d [%v, %v]\n", tr.Name, seed, tr.StartSec, tr.EndSec)
			if err := ensembleio.SaveTrace(&buf, tr.Run); err != nil {
				t.Errorf("seed %d: SaveTrace(%s): %v", seed, tr.Name, err)
			}
		}
		if err := ensembleio.SaveTelemetrySnapshot(&buf, res.Telemetry); err != nil {
			t.Errorf("seed %d: SaveTelemetrySnapshot: %v", seed, err)
		}
		if err := ensembleio.SaveSpanList(&buf, res.Spans); err != nil {
			t.Errorf("seed %d: SaveSpanList: %v", seed, err)
		}
		repJSON, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Errorf("seed %d: marshal report: %v", seed, err)
		}
		buf.Write(repJSON)
		out[i] = buf.Bytes()
		return res.Tenants[0].Run
	})
	var all bytes.Buffer
	for _, b := range out {
		all.Write(b)
	}
	return all.Bytes()
}

// TestTenancyDeterministic extends the byte-identity contract to
// multi-tenant co-runs: a shared-platform session with staggered
// tenants, per-tenant accounting, merged telemetry, and the full
// interference analysis (solo baselines included) must serialize
// byte-identically across worker counts (-j 1 vs -j 4).
func TestTenancyDeterministic(t *testing.T) {
	sequential := tenancyArtifacts(t, 1)
	if len(sequential) == 0 {
		t.Fatal("tenancy co-runs produced no serialized artifacts; the check is vacuous")
	}
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	parallel := tenancyArtifacts(t, 4)
	if !bytes.Equal(sequential, parallel) {
		i := 0
		for i < len(sequential) && i < len(parallel) && sequential[i] == parallel[i] {
			i++
		}
		t.Errorf("tenancy co-runs -j 1 vs -j 4: artifacts differ (len %d vs %d, first divergence at byte %d)",
			len(sequential), len(parallel), i)
	}
}

// TestCacheHitByteIdenticalToFreshRun is the determinism-suite entry
// for the content-addressed run cache: an artifact set served from the
// cache must be byte-identical to a fresh computation of the same
// scenario, across worker counts (-j1 vs -j4).
func TestCacheHitByteIdenticalToFreshRun(t *testing.T) {
	specs := []*ensembleio.WorkloadSpec{
		ensembleio.GenerateWorkload(1),
		ensembleio.GenerateWorkload(2),
	}
	entries := make([]ensembleio.CampaignEntry, 0, len(specs))
	for i, spec := range specs {
		entries = append(entries, ensembleio.CampaignEntry{
			Name: spec.Name, Spec: spec, Platform: ensembleio.Franklin(), Seed: int64(i + 1),
		})
	}

	// Fresh baseline: no cache, one worker.
	fresh, _, err := ensembleio.RunCampaign(entries, ensembleio.CampaignOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	store, err := ensembleio.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Populate at -j4.
	populate, popStats, err := ensembleio.RunCampaign(entries, ensembleio.CampaignOptions{Workers: 4, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if popStats.Misses != len(specs) {
		t.Fatalf("populate stats %+v", popStats)
	}
	// Serve at -j1: every entry must hit, and -cache-verify style
	// recomputation must agree byte for byte.
	served, srvStats, err := ensembleio.RunCampaign(entries, ensembleio.CampaignOptions{Workers: 1, Store: store, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if srvStats.Hits != len(specs) || srvStats.Misses != 0 {
		t.Fatalf("serve stats %+v", srvStats)
	}
	for i := range fresh {
		if err := ensembleio.DiffCacheArtifacts(fresh[i].Artifacts, populate[i].Artifacts); err != nil {
			t.Errorf("entry %d: fresh(j1) vs computed(j4): %v", i, err)
		}
		if err := ensembleio.DiffCacheArtifacts(fresh[i].Artifacts, served[i].Artifacts); err != nil {
			t.Errorf("entry %d: fresh(j1) vs cache-served(j1): %v", i, err)
		}
	}
}
