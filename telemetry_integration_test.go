package ensembleio_test

// Integration test for the telemetry tentpole: a faulted IOR run with
// the sink enabled must produce (a) fault spans that localize the
// injected flaky-OST stall windows at their exact virtual times, (b) a
// per-OST stall counter charging the stalled server and no other, and
// (c) a Chrome trace export that passes the schema validator — the
// "open it in Perfetto and see the fault" workflow, mechanized.

import (
	"bytes"
	"strings"
	"testing"

	"ensembleio"
)

func TestTelemetryLocalizesInjectedFault(t *testing.T) {
	const spec = `{
	  "faults": [
	    {"type": "flaky-ost", "ost": 1, "start_sec": 0.25, "period_sec": 1.5, "stall_sec": 0.5}
	  ]
	}`
	scenario, err := ensembleio.ParseScenario(strings.NewReader(spec))
	if err != nil {
		t.Fatalf("ParseScenario: %v", err)
	}
	run := ensembleio.RunIOR(ensembleio.IORConfig{
		Machine: ensembleio.Franklin(), Tasks: 32, Reps: 2,
		BlockBytes: 64e6, TransferBytes: 16e6,
		Faults: scenario, Seed: 11, Telemetry: true,
	})
	if run.Telemetry == nil {
		t.Fatal("telemetry requested but Run.Telemetry is nil")
	}

	// (a) Fault spans sit exactly on the injected windows: start_sec +
	// k*period_sec, each stall_sec long, clipped to the run.
	var faultSpans []ensembleio.Span
	for sp := range run.Spans.All() {
		if sp.Cat == "fault" {
			faultSpans = append(faultSpans, sp)
		}
	}
	if len(faultSpans) == 0 {
		t.Fatal("no fault spans recorded for a faulted run")
	}
	wall := float64(run.Wall)
	for i, sp := range faultSpans {
		if sp.Name != "ost1-stall" {
			t.Errorf("fault span %d named %q, want ost1-stall", i, sp.Name)
		}
		wantStart := 0.25 + float64(i)*1.5
		if sp.Start != wantStart {
			t.Errorf("fault span %d starts at %v, want %v", i, sp.Start, wantStart)
		}
		wantEnd := wantStart + 0.5
		if wantEnd > wall {
			wantEnd = wall
		}
		if sp.End != wantEnd {
			t.Errorf("fault span %d ends at %v, want %v", i, sp.End, wantEnd)
		}
	}

	// (b) The stall time is charged to OST 1 and only OST 1.
	stall := run.Telemetry.Counter("lustre.ost001.stall_s")
	if stall <= 0 {
		t.Errorf("lustre.ost001.stall_s = %v, want > 0", stall)
	}
	var wantStall float64
	for _, sp := range faultSpans {
		wantStall += sp.End - sp.Start
	}
	if stall != wantStall {
		t.Errorf("lustre.ost001.stall_s = %v, fault spans total %v", stall, wantStall)
	}
	if v := run.Telemetry.Counter("lustre.ost000.stall_s"); v != 0 {
		t.Errorf("healthy OST 0 charged %v stall seconds", v)
	}

	// Workload phases and per-rank IO made it into the span stream too.
	var phases, io int
	for sp := range run.Spans.All() {
		switch sp.Cat {
		case "phase":
			phases++
		case "io":
			io++
		}
	}
	if phases == 0 || io == 0 {
		t.Errorf("span stream missing categories: %d phase, %d io spans", phases, io)
	}

	// (c) The Perfetto export round-trips through the schema validator.
	var chrome bytes.Buffer
	if err := ensembleio.SaveChromeTrace(&chrome, run); err != nil {
		t.Fatalf("SaveChromeTrace: %v", err)
	}
	n, err := ensembleio.ValidateChromeTrace(bytes.NewReader(chrome.Bytes()))
	if err != nil {
		t.Fatalf("ValidateChromeTrace: %v", err)
	}
	if want := run.Spans.Len() + 4; n != want { // 4 metadata events
		t.Errorf("chrome trace has %d events, want %d", n, want)
	}
}

// TestTelemetryDisabledByDefault pins the zero-cost contract's API
// side: without the Telemetry flag the run carries no snapshot and no
// spans, and the telemetry savers refuse rather than emit empty files.
func TestTelemetryDisabledByDefault(t *testing.T) {
	run := ensembleio.RunIOR(ensembleio.IORConfig{
		Machine: ensembleio.Franklin(), Tasks: 8, Reps: 1,
		BlockBytes: 16e6, TransferBytes: 8e6, Seed: 1,
	})
	if run.Telemetry != nil {
		t.Error("telemetry snapshot present without the Telemetry flag")
	}
	if run.Spans.Len() != 0 {
		t.Errorf("%d spans recorded without the Telemetry flag", run.Spans.Len())
	}
	if err := ensembleio.SaveTelemetry(&bytes.Buffer{}, run); err == nil {
		t.Error("SaveTelemetry succeeded on a run without telemetry")
	}
}
