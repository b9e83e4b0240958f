package telemetry

import (
	"encoding/json"
	"math"
	"testing"
)

func TestNilSinkNoOps(t *testing.T) {
	var s *Sink
	c, g, h := s.Counter("x"), s.Gauge("x"), s.Hist("x")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil sink handed out a live handle")
	}
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil counter accumulated")
	}
	g.Set(5)
	h.Observe(1)
	s.Span("cat", "n", 0, 0, 1)
	if s.Spans() != nil {
		t.Fatal("nil sink recorded spans")
	}
	if s.Snapshot() != nil {
		t.Fatal("nil sink produced snapshot")
	}
}

func TestCounterGaugeHist(t *testing.T) {
	s := New()
	c := s.Counter("events")
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	if s.Counter("events") != c {
		t.Fatal("re-registration returned a different handle")
	}

	g := s.Gauge("heap")
	g.Set(10)
	g.Set(3)

	h := s.Hist("dur")
	for _, v := range []float64{0.5, 5, 50, 0, -1, math.NaN(), math.Inf(1)} {
		h.Observe(v)
	}
	snap := s.Snapshot()
	if gs := snap.Gauges[0]; gs.Value != 3 || gs.Max != 10 {
		t.Fatalf("gauge value/max = %v/%v, want 3/10", gs.Value, gs.Max)
	}
	if len(snap.Hists) != 1 {
		t.Fatalf("hists = %d, want 1", len(snap.Hists))
	}
	hs := snap.Hists[0]
	if hs.Count != 7 {
		t.Fatalf("hist count = %d, want 7", hs.Count)
	}
	if hs.Under != 4 {
		t.Fatalf("underflow = %d, want 4 (zero, negative, NaN, Inf)", hs.Under)
	}
	if hs.Min != 0.5 || hs.Max != 50 {
		t.Fatalf("min/max = %v/%v, want 0.5/50", hs.Min, hs.Max)
	}
	if math.Abs(hs.Mean()-55.5/3) > 1e-12 {
		t.Fatalf("mean = %v, want %v", hs.Mean(), 55.5/3)
	}
	var total int64
	for _, b := range hs.Bins {
		if b.Lo >= b.Hi {
			t.Fatalf("bin edges out of order: [%v, %v)", b.Lo, b.Hi)
		}
		total += b.Count
	}
	if total != 3 {
		t.Fatalf("binned count = %d, want 3", total)
	}
}

func TestHistBinEdgesCoverObservation(t *testing.T) {
	s := New()
	h := s.Hist("x")
	vals := []float64{1e-6, 0.02, 0.9999, 1, 3.14, 1e9}
	for _, v := range vals {
		h.Observe(v)
	}
	snap := s.Snapshot()
	for _, v := range vals {
		found := false
		for _, b := range snap.Hists[0].Bins {
			// Edges are pow(10, i/4); allow for FP slop at exact edges.
			if v >= b.Lo*(1-1e-12) && v < b.Hi*(1+1e-12) && b.Count > 0 {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("observation %v not covered by any non-empty bin", v)
		}
	}
}

func TestSpans(t *testing.T) {
	s := New()
	s.Span("phase", "write", -1, 1.0, 4.0)
	s.Span("io", "pwrite", 3, 1.5, 2.5)
	spans := s.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	if spans[0] != (Span{Cat: "phase", Name: "write", Rank: -1, Start: 1, End: 4}) {
		t.Fatalf("phase span = %+v", spans[0])
	}
	if spans[1] != (Span{Cat: "io", Name: "pwrite", Rank: 3, Start: 1.5, End: 2.5}) {
		t.Fatalf("io span = %+v", spans[1])
	}
	// Spans() must return a copy.
	spans[0].Name = "mutated"
	if s.Spans()[0].Name != "write" {
		t.Fatal("Spans() aliases internal storage")
	}
}

// Snapshot serialization must not depend on registration or map order.
func TestSnapshotDeterministic(t *testing.T) {
	build := func(names []string) []byte {
		s := New()
		for _, n := range names {
			s.Counter(n).Inc()
			s.Gauge("g." + n).Set(float64(len(n)))
			s.Hist("h." + n).Observe(1.5)
		}
		b, err := json.Marshal(s.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := build([]string{"alpha", "beta", "gamma", "delta"})
	b := build([]string{"delta", "gamma", "beta", "alpha"})
	if string(a) != string(b) {
		t.Fatalf("snapshot depends on registration order:\n%s\n%s", a, b)
	}
}

func TestSnapshotCounterLookup(t *testing.T) {
	s := New()
	s.Counter("a").Add(7)
	snap := s.Snapshot()
	if got := snap.Counter("a"); got != 7 {
		t.Fatalf("Counter(a) = %v, want 7", got)
	}
	if got := snap.Counter("missing"); got != 0 {
		t.Fatalf("Counter(missing) = %v, want 0", got)
	}
}
