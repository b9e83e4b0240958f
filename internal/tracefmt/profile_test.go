package tracefmt

import (
	"bytes"
	"math"
	"testing"

	"ensembleio/internal/analysis"
	"ensembleio/internal/ensemble"
	"ensembleio/internal/ipmio"
	"ensembleio/internal/sim"
)

func profiledCollector() *ipmio.Collector {
	c := ipmio.NewCollector(ipmio.ProfileMode | ipmio.TraceMode)
	for i := 0; i < 500; i++ {
		c.Record(ipmio.Event{
			Rank: i % 16, Op: ipmio.OpWrite, FD: 3,
			Offset: int64(i) * 1e6, Bytes: 1e6,
			Start: sim.Time(i), Dur: sim.Duration(0.5 + float64(i%7)*0.3),
		})
	}
	for i := 0; i < 100; i++ {
		c.Record(ipmio.Event{
			Rank: i % 16, Op: ipmio.OpRead, FD: 3,
			Offset: int64(i) * 1e6, Bytes: 1e6,
			Start: sim.Time(500 + i), Dur: 2.0,
		})
	}
	c.Mark("phase1", 0)
	c.Mark("phase2", 250)
	return c
}

func TestProfileRoundTrip(t *testing.T) {
	c := profiledCollector()
	p, err := ProfileOf(c)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteProfile(&buf, p); err != nil {
		t.Fatal(err)
	}
	p2, err := ReadProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}

	for _, op := range []ipmio.Op{ipmio.OpWrite, ipmio.OpRead} {
		orig, got := p.Duration(op), p2.Duration(op)
		if got == nil {
			t.Fatalf("%v histogram lost in round trip", op)
		}
		if got.Total() != orig.Total() {
			t.Errorf("%v total %v, want %v", op, got.Total(), orig.Total())
		}
		if math.Abs(got.Mean()-orig.Mean()) > 1e-9 {
			t.Errorf("%v mean %v, want %v", op, got.Mean(), orig.Mean())
		}
	}
	if len(p2.Marks) != 2 || p2.PhaseMarks()[1].Name != "phase2" {
		t.Errorf("marks lost: %+v", p2.Marks)
	}
	// Ops with no events are omitted entirely.
	if p2.Duration(ipmio.OpFsync) != nil {
		t.Error("empty op histogram serialized")
	}
}

func TestProfileCapturesTraceStatistics(t *testing.T) {
	c := profiledCollector()
	p, err := ProfileOf(c)
	if err != nil {
		t.Fatal(err)
	}
	trace := analysis.Durations(c.Events, analysis.IsOp(ipmio.OpWrite))
	prof := p.Duration(ipmio.OpWrite)
	if math.Abs(prof.Mean()-trace.Mean())/trace.Mean() > 0.1 {
		t.Errorf("profile mean %v vs trace mean %v", prof.Mean(), trace.Mean())
	}
	if math.Abs(prof.Quantile(0.5)-trace.Quantile(0.5))/trace.Quantile(0.5) > 0.2 {
		t.Errorf("profile median %v vs trace median %v", prof.Quantile(0.5), trace.Quantile(0.5))
	}
}

func TestProfileMuchSmallerThanTrace(t *testing.T) {
	c := profiledCollector()
	p, _ := ProfileOf(c)
	var profBuf, traceBuf bytes.Buffer
	if err := WriteProfile(&profBuf, p); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&traceBuf, c.Events, c.Marks); err != nil {
		t.Fatal(err)
	}
	if profBuf.Len() >= traceBuf.Len() {
		t.Errorf("profile (%d B) not smaller than trace (%d B); it should be the size of the binning, not the event count",
			profBuf.Len(), traceBuf.Len())
	}
}

func TestProfileOfTraceOnlyCollectorFails(t *testing.T) {
	c := ipmio.NewCollector(ipmio.TraceMode)
	if _, err := ProfileOf(c); err == nil {
		t.Error("ProfileOf accepted a trace-only collector")
	}
}

func TestHistogramJSONValidation(t *testing.T) {
	cases := []string{
		`{"edges":[1],"counts":[]}`,        // too few edges
		`{"edges":[1,2,3],"counts":[1]}`,   // count/bin mismatch
		`{"edges":[1,3,2],"counts":[1,1]}`, // non-increasing edges
		`{"edges":"nope","counts":[1]}`,    // wrong type
	}
	for _, tc := range cases {
		var h ensemble.Histogram
		if err := h.UnmarshalJSON([]byte(tc)); err == nil {
			t.Errorf("accepted invalid histogram %s", tc)
		}
	}
}

func TestHistogramJSONPreservesLogBinning(t *testing.T) {
	h := ensemble.NewHistogram(ensemble.LogBins(0.1, 100, 3))
	h.Add(5)
	h.Add(0.01) // underflow
	data, err := h.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var h2 ensemble.Histogram
	if err := h2.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	if !h2.Bins.Log {
		t.Error("log flag lost")
	}
	if h2.Underflow() != 1 || h2.Total() != 2 {
		t.Errorf("counts lost: under=%v total=%v", h2.Underflow(), h2.Total())
	}
}
