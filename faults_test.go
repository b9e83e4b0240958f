package ensembleio

// Fault-injection tests: each labeled pathology from internal/faults
// is injected into an IOR run and the advisor must produce the
// matching diagnosis from the ensemble statistics (plus the per-OST
// counters for straggler localization) — and stay silent about every
// fault code on a clean baseline. The fault-to-signature table is
// DESIGN.md §9.

import (
	"strings"
	"testing"
)

// faultCodes are the advisor codes introduced by the fault-injection
// work; the clean baseline must produce none of them.
var faultCodes = []string{
	"straggler-ost", "slow-node", "intermittent-stall",
	"mds-brownout", "background-contention",
}

// stragglerConfig: 256 tasks, file per process on a single stripe
// each, with OST 5 serving at 1% speed. Roughly 1/48 of the files (and
// so of the ranks) land on the degraded OST.
func stragglerConfig() IORConfig {
	return IORConfig{
		Machine:        Franklin(),
		Tasks:          256,
		BlockBytes:     192e6,
		TransferBytes:  32e6,
		Reps:           3,
		FilePerProcess: true,
		StripeCount:    1,
		Faults: &Scenario{Faults: []Fault{
			&SlowOST{OST: 5, Factor: 0.01},
		}},
		Seed: 7,
	}
}

func stragglerRun() *Run {
	return cached("fault-straggler", func() *Run { return RunIOR(stragglerConfig()) })
}

// slowNodeConfig: a shared-file IOR with node 3's link at 1% speed.
func slowNodeConfig() IORConfig {
	return IORConfig{
		Machine:       Franklin(),
		Tasks:         256,
		BlockBytes:    128e6,
		TransferBytes: 32e6,
		Reps:          2,
		Faults: &Scenario{Faults: []Fault{
			&SlowNodeLink{Node: 3, Factor: 0.01},
		}},
		Seed: 7,
	}
}

func TestStragglerOSTDiagnosedAndLocalized(t *testing.T) {
	findings := Diagnose(stragglerRun())
	var msg string
	for _, f := range findings {
		if f.Code == "straggler-ost" {
			msg = f.Message
		}
	}
	if msg == "" {
		t.Fatalf("advisor missed the straggler OST: %v", findings)
	}
	if !strings.Contains(msg, "OST 5") {
		t.Errorf("straggler diagnosis names the wrong OST: %q", msg)
	}
}

func TestSlowNodeDiagnosed(t *testing.T) {
	run := cached("fault-slow-node", func() *Run { return RunIOR(slowNodeConfig()) })
	findings := Diagnose(run)
	if !hasFinding(findings, "slow-node") {
		t.Fatalf("advisor missed the degraded node link: %v", findings)
	}
	for _, f := range findings {
		if f.Code == "slow-node" && !strings.Contains(f.Message, "node 3") {
			t.Errorf("slow-node diagnosis names the wrong node: %q", f.Message)
		}
	}
}

func TestIntermittentStallDiagnosed(t *testing.T) {
	// Shared file striped over all OSTs: during a stall window on OST 2
	// every in-window write is capped, so stalled phases go bimodal
	// while off-window phases stay clean.
	run := cached("fault-flaky", func() *Run {
		return RunIOR(IORConfig{
			Machine:       Franklin(),
			Tasks:         256,
			BlockBytes:    128e6,
			TransferBytes: 32e6,
			Reps:          6,
			Faults: &Scenario{Faults: []Fault{
				&FlakyOST{OST: 2, StartSec: 2, PeriodSec: 5, StallSec: 1.5},
			}},
			Seed: 7,
		})
	})
	if findings := Diagnose(run); !hasFinding(findings, "intermittent-stall") {
		t.Fatalf("advisor missed the intermittent stall: %v", findings)
	}
}

func TestMDSBrownoutDiagnosed(t *testing.T) {
	// File per process turns the open storm into 128 metadata ops
	// contending for the browned-out MDS's two slots.
	run := cached("fault-brownout", func() *Run {
		return RunIOR(IORConfig{
			Machine:        Franklin(),
			Tasks:          128,
			BlockBytes:     64e6,
			TransferBytes:  32e6,
			Reps:           2,
			FilePerProcess: true,
			Faults: &Scenario{Faults: []Fault{
				&MDSBrownout{Concurrency: 2, SlowProb: 0.35, SlowLoSec: 0.4, SlowHiSec: 1.6},
			}},
			Seed: 7,
		})
	})
	if findings := Diagnose(run); !hasFinding(findings, "mds-brownout") {
		t.Fatalf("advisor missed the MDS brownout: %v", findings)
	}
}

func TestBackgroundContentionDiagnosed(t *testing.T) {
	// Bursts consuming ~81% of the aggregate: phases covered by a burst
	// shift wholesale — lower quartile included — and later phases
	// recover once the burst ends.
	run := cached("fault-bursts", func() *Run {
		return RunIOR(IORConfig{
			Machine:       Franklin(),
			Tasks:         256,
			BlockBytes:    64e6,
			TransferBytes: 8e6,
			Reps:          8,
			Faults: &Scenario{Faults: []Fault{
				&BackgroundBursts{MBps: 13000, OnSec: 6, OffSec: 9, StartSec: 1.5},
			}},
			Seed: 7,
		})
	})
	if findings := Diagnose(run); !hasFinding(findings, "background-contention") {
		t.Fatalf("advisor missed the background contention: %v", findings)
	}
}

// TestCleanBaselineNoFaultDiagnoses: the fault detectors must not fire
// on healthy runs — neither the shared-file nor the file-per-process
// variant of the same workloads the injection tests use.
func TestCleanBaselineNoFaultDiagnoses(t *testing.T) {
	shared := cached("fault-clean-shared", func() *Run {
		return RunIOR(IORConfig{
			Machine:       Franklin(),
			Tasks:         256,
			BlockBytes:    128e6,
			TransferBytes: 32e6,
			Reps:          6,
			Seed:          7,
		})
	})
	fpp := cached("fault-clean-fpp", func() *Run {
		return RunIOR(IORConfig{
			Machine:        Franklin(),
			Tasks:          256,
			BlockBytes:     192e6,
			TransferBytes:  32e6,
			Reps:           3,
			FilePerProcess: true,
			StripeCount:    1,
			Seed:           7,
		})
	})
	for name, run := range map[string]*Run{"shared": shared, "fpp": fpp} {
		findings := Diagnose(run)
		for _, code := range faultCodes {
			if hasFinding(findings, code) {
				t.Errorf("%s clean baseline falsely diagnosed as %q: %v", name, code, findings)
			}
		}
	}
}

// TestFaultedRunsStayDeterministic: a faulted simulation remains
// bit-reproducible — same scenario and seed give identical walls and
// event counts; a different seed still produces a straggler diagnosis
// (the signature is a property of the fault, not of one lucky seed).
func TestFaultedRunStability(t *testing.T) {
	cfg := IORConfig{
		Machine:        Franklin(),
		Tasks:          64,
		BlockBytes:     64e6,
		TransferBytes:  32e6,
		Reps:           2,
		FilePerProcess: true,
		StripeCount:    1,
		Faults: &Scenario{Faults: []Fault{
			&SlowOST{OST: 5, Factor: 0.01},
			&MDSBrownout{Concurrency: 4, SlowProb: 0.2, SlowLoSec: 0.1, SlowHiSec: 0.4},
		}},
		Seed: 3,
	}
	a, b := RunIOR(cfg), RunIOR(cfg)
	if a.Wall != b.Wall || len(a.Collector.Events) != len(b.Collector.Events) {
		t.Errorf("faulted runs diverge: wall %v vs %v, %d vs %d events",
			a.Wall, b.Wall, len(a.Collector.Events), len(b.Collector.Events))
	}
}
