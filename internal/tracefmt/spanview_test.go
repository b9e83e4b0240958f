package tracefmt_test

import (
	"bytes"
	"io"
	"testing"

	"ensembleio/internal/cluster"
	"ensembleio/internal/faults"
	"ensembleio/internal/ipmio"
	"ensembleio/internal/telemetry"
	"ensembleio/internal/tenancy"
	"ensembleio/internal/tracefmt"
	"ensembleio/internal/workloads"
)

// ioJob is one job's trace as the old per-event span copy saw it.
type ioJob struct {
	tag    string
	events []ipmio.Event
}

// flatSpans rebuilds the span list runs used to store: the run-scoped
// spans, then one io span per traced call, per job in attach order.
func flatSpans(scoped []telemetry.Span, jobs []ioJob) []telemetry.Span {
	spans := append([]telemetry.Span(nil), scoped...)
	for _, j := range jobs {
		for _, e := range j.events {
			spans = append(spans, telemetry.Span{
				Cat: "io", Name: j.tag + e.Op.String(), Rank: e.Rank,
				Start: float64(e.Start), End: float64(e.Start + e.Dur),
			})
		}
	}
	return spans
}

// TestSpanViewMatchesFlatCopy: both writers render a run's span view to
// exactly the bytes the encoding/json oracles give for the old flat
// copy, and the view counts the spans that list holds.
func TestSpanViewMatchesFlatCopy(t *testing.T) {
	ior := workloads.IORConfig{
		Machine: cluster.Franklin(), Tasks: 16, Reps: 2,
		BlockBytes: 32e6, TransferBytes: 8e6, Seed: 3, Telemetry: true,
	}
	faulted := ior
	faulted.Faults = &faults.Scenario{Faults: []faults.Fault{
		&faults.FlakyOST{OST: 1, StartSec: 0.25, PeriodSec: 1.5, StallSec: 0.5},
	}}
	profiled := ior
	profiled.Mode = ipmio.ProfileMode
	solo := func(cfg workloads.IORConfig) func(t *testing.T) (tracefmt.SpanView, []ioJob) {
		return func(t *testing.T) (tracefmt.SpanView, []ioJob) {
			run := workloads.RunIOR(cfg)
			return run.Spans, []ioJob{{"", run.Collector.Events}}
		}
	}
	cases := []struct {
		name string
		run  func(t *testing.T) (tracefmt.SpanView, []ioJob)
		cat  string // a run-scoped category the case must record
		io   bool   // whether the run traces any io span
	}{
		{"solo-ior", solo(ior), "phase", true},
		{"faulted-ior", solo(faulted), "fault", true},
		{"profile-only", solo(profiled), "phase", false},
		{"two-tenant-staggered", func(t *testing.T) (tracefmt.SpanView, []ioJob) {
			small := ior
			small.Tasks = 8
			res, err := tenancy.RunTenants(tenancy.Config{Machine: cluster.Franklin(), Seed: 5, Telemetry: true}, []tenancy.Tenant{
				{Name: "early", Spec: workloads.IORSpec(ior)},
				{Name: "late", Spec: workloads.IORSpec(small), StartSec: 0.5},
			})
			if err != nil {
				t.Fatal(err)
			}
			var jobs []ioJob
			for _, tr := range res.Tenants {
				jobs = append(jobs, ioJob{tr.Name + "/", tr.Run.Collector.Events})
			}
			return res.Spans, jobs
		}, "tenant", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			view, jobs := tc.run(t)
			seen := false
			for _, sp := range view.Scoped {
				if sp.Cat == "io" {
					t.Fatalf("io span %+v stored with the run-scoped spans", sp)
				}
				seen = seen || sp.Cat == tc.cat
			}
			if !seen {
				t.Fatalf("no %s span recorded", tc.cat)
			}
			flat := flatSpans(view.Scoped, jobs)
			if n := len(flat) - len(view.Scoped); (n > 0) != tc.io {
				t.Fatalf("%d io spans, want some: %v", n, tc.io)
			}
			if view.Len() != len(flat) {
				t.Errorf("view counts %d spans, the flat copy holds %d", view.Len(), len(flat))
			}
			writers := []struct {
				name      string
				got, want func(io.Writer) error
			}{
				{"WriteSpans",
					func(w io.Writer) error { return tracefmt.WriteSpans(w, view) },
					func(w io.Writer) error { return tracefmt.OracleWriteSpans(w, flat) }},
				{"WriteChromeTrace",
					func(w io.Writer) error { return tracefmt.WriteChromeTrace(w, view) },
					func(w io.Writer) error { return tracefmt.OracleWriteChromeTrace(w, flat) }},
			}
			for _, wr := range writers {
				var got, want bytes.Buffer
				if err := wr.got(&got); err != nil {
					t.Fatalf("%s: %v", wr.name, err)
				}
				if err := wr.want(&want); err != nil {
					t.Fatalf("%s oracle: %v", wr.name, err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Errorf("%s: view renders %d bytes, the flat copy %d, and they differ", wr.name, got.Len(), want.Len())
				}
			}
		})
	}
}
