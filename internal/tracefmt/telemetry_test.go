package tracefmt

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ensembleio/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite golden files")

// testSpans is a fixed span set covering every track the exporter
// lays out: run-scoped phases and fault windows plus per-rank IO.
func testSpans() []telemetry.Span {
	return []telemetry.Span{
		{Cat: "phase", Name: "write-phase-0", Rank: -1, Start: 0, End: 30.5},
		{Cat: "phase", Name: "write-phase-1", Rank: -1, Start: 30.5, End: 62},
		{Cat: "fault", Name: "ost1-stall", Rank: -1, Start: 5, End: 13},
		{Cat: "fault", Name: "ost1-stall", Rank: -1, Start: 35, End: 43},
		{Cat: "io", Name: "write", Rank: 0, Start: 0.25, End: 28.75},
		{Cat: "io", Name: "write", Rank: 1, Start: 0.25, End: 30.5},
		{Cat: "io", Name: "open", Rank: 1, Start: 0, End: 0.25},
	}
}

func testSnapshot() *telemetry.Snapshot {
	sink := telemetry.New()
	c := sink.Counter("lustre.write_mb")
	c.Add(512)
	g := sink.Gauge("sim.heap_high_water")
	g.Set(40)
	g.Set(17)
	h := sink.Hist("lustre.stream_service_s")
	for _, v := range []float64{0.5, 1.5, 2.5, 30, 0} {
		h.Observe(v)
	}
	return sink.Snapshot()
}

func TestSpansRoundTrip(t *testing.T) {
	spans := testSpans()
	var buf bytes.Buffer
	if err := WriteSpans(&buf, SpanView{Scoped: spans}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(spans) {
		t.Fatalf("%d spans back, want %d", len(got), len(spans))
	}
	for i := range spans {
		if got[i] != spans[i] {
			t.Errorf("span %d: %+v round-tripped to %+v", i, spans[i], got[i])
		}
	}
}

func TestReadSpansRejects(t *testing.T) {
	cases := []string{
		`{"cat":"io","name":"","rank":0,"start":0,"end":1}`,                                   // empty name
		`{"cat":"io","name":"w","rank":0,"start":2,"end":1}`,                                  // ends before start
		`{"cat":"io","name":"w","rank":0,"start":"NaN","end":1}`,                              // non-numeric time
		`{"cat":"io","name":"` + strings.Repeat("x", 1<<21) + `","rank":0,"start":0,"end":1}`, // oversized
		`{`, // truncated
	}
	for _, c := range cases {
		if _, err := ReadSpans(strings.NewReader(c)); err == nil {
			t.Errorf("span record %.60q accepted, want error", c)
		}
	}
}

func TestMetricsRoundTrip(t *testing.T) {
	snap := testSnapshot()
	var buf bytes.Buffer
	if err := WriteMetrics(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMetrics(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Counter("lustre.write_mb") != 512 {
		t.Errorf("counter lost: %v", got.Counter("lustre.write_mb"))
	}
	if len(got.Hists) != 1 || got.Hists[0].Count != 5 || got.Hists[0].Under != 1 {
		t.Errorf("hist summary lost: %+v", got.Hists)
	}
	// Serialization is canonical: re-encoding what we read must produce
	// the same bytes (the determinism tests diff these artifacts).
	var again bytes.Buffer
	if err := WriteMetrics(&again, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("metrics encoding is not a fixpoint")
	}
}

func TestWriteMetricsNilSnapshot(t *testing.T) {
	if err := WriteMetrics(&bytes.Buffer{}, nil); err == nil {
		t.Fatal("nil snapshot accepted, want error")
	}
}

func TestReadMetricsRejects(t *testing.T) {
	cases := []string{
		`{"counters":[{"name":"a","value":"NaN"}]}`,
		`{"hists":[{"name":"h","count":-1,"sum":0,"min":0,"max":0}]}`,
		`{"hists":[{"name":"h","count":2,"sum":1,"min":0,"max":1,"bins":[{"lo":1,"hi":0.5,"count":2}]}]}`,
		`{"hists":[{"name":"h","count":2,"sum":1,"min":0,"max":1,"bins":[{"lo":0,"hi":1,"count":7}]}]}`,
		`{"counters":[{"name":"` + strings.Repeat("x", 1<<21) + `","value":1}]}`,
	}
	for _, c := range cases {
		if _, err := ReadMetrics(strings.NewReader(c)); err == nil {
			t.Errorf("metrics %.60q accepted, want error", c)
		}
	}
}

// TestChromeTraceGolden pins the exporter's exact bytes. The golden
// file is a Perfetto-loadable artifact; regenerate with -update after
// a deliberate format change.
func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, SpanView{Scoped: testSpans()}); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_trace.golden.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("chrome trace drifted from golden (rerun with -update if deliberate)\ngot:\n%s", buf.Bytes())
	}
	// The golden artifact must satisfy our own schema check.
	n, err := ValidateChromeTrace(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	// 4 metadata events (2 process names, 2 run lanes) + 7 spans.
	if n != 11 {
		t.Errorf("%d events in golden trace, want 11", n)
	}
}

func TestValidateChromeTraceRejects(t *testing.T) {
	cases := []string{
		`{"traceEvents":[{"name":"","ph":"X","ts":0,"pid":0,"tid":0}]}`,
		`{"traceEvents":[{"name":"w","ph":"B","ts":0,"pid":0,"tid":0}]}`,
		`{"traceEvents":[{"name":"w","ph":"X","ts":-5,"pid":0,"tid":0}]}`,
		`not json`,
	}
	for _, c := range cases {
		if _, err := ValidateChromeTrace(strings.NewReader(c)); err == nil {
			t.Errorf("chrome trace %.60q accepted, want error", c)
		}
	}
}

func TestWriteChromeTraceRejectsBadSpan(t *testing.T) {
	bad := []telemetry.Span{{Cat: "io", Name: "", Rank: 0, Start: 0, End: 1}}
	if err := WriteChromeTrace(&bytes.Buffer{}, SpanView{Scoped: bad}); err == nil {
		t.Fatal("unnamed span exported, want error")
	}
}

func FuzzSpanDecode(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteSpans(&seed, SpanView{Scoped: testSpans()}); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(`{"cat":"io","name":"w","rank":0,"start":0,"end":1}`))
	f.Add([]byte(`{"cat":"io","name":"w","rank":0,"start":1,"end":0}`))
	f.Add([]byte(`{"name":"w","start":0,"end":0}`))
	f.Add([]byte("{"))

	f.Fuzz(func(t *testing.T, data []byte) {
		spans, err := ReadSpans(bytes.NewReader(data))
		if err != nil {
			return // rejecting bad input is fine; panicking is not
		}
		// Accepted spans re-encode, and the encoding is a fixpoint.
		var once bytes.Buffer
		if err := WriteSpans(&once, SpanView{Scoped: spans}); err != nil {
			t.Fatalf("re-encoding accepted spans: %v", err)
		}
		sp2, err := ReadSpans(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("decoding own encoding: %v", err)
		}
		var twice bytes.Buffer
		if err := WriteSpans(&twice, SpanView{Scoped: sp2}); err != nil {
			t.Fatalf("second re-encode: %v", err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("span encode∘decode is not a fixpoint")
		}
		// Everything ReadSpans accepts must also export cleanly.
		if err := WriteChromeTrace(&bytes.Buffer{}, SpanView{Scoped: spans}); err != nil {
			t.Fatalf("accepted spans fail chrome export: %v", err)
		}
	})
}

func FuzzMetricsDecode(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteMetrics(&seed, testSnapshot()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"counters":[{"name":"a","value":1}]}`))
	f.Add([]byte(`{"hists":[{"name":"h","count":1,"sum":2,"min":2,"max":2,"bins":[{"lo":1,"hi":1.8,"count":1}]}]}`))
	f.Add([]byte(`null`))
	f.Add([]byte("{"))

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := ReadMetrics(bytes.NewReader(data))
		if err != nil {
			return
		}
		var once bytes.Buffer
		if err := WriteMetrics(&once, snap); err != nil {
			t.Fatalf("re-encoding accepted metrics: %v", err)
		}
		s2, err := ReadMetrics(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("decoding own encoding: %v", err)
		}
		var twice bytes.Buffer
		if err := WriteMetrics(&twice, s2); err != nil {
			t.Fatalf("second re-encode: %v", err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("metrics encode∘decode is not a fixpoint")
		}
	})
}
