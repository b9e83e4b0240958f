package analysis

import (
	"math"
	"strings"
	"testing"

	"ensembleio/internal/ensemble"
	"ensembleio/internal/ipmio"
	"ensembleio/internal/sim"
)

func TestPhasesAssignEvents(t *testing.T) {
	events := []ipmio.Event{
		{Op: ipmio.OpWrite, Start: 1},
		{Op: ipmio.OpWrite, Start: 5},
		{Op: ipmio.OpWrite, Start: 12},
	}
	marks := []ipmio.PhaseMark{{Name: "w1", T: 0}, {Name: "w2", T: 4}, {Name: "w3", T: 10}}
	ph := Phases(events, marks, 20)
	if len(ph) != 3 {
		t.Fatalf("%d phases, want 3", len(ph))
	}
	for i, want := range []int{1, 1, 1} {
		if len(ph[i].Events) != want {
			t.Errorf("phase %d has %d events, want %d", i, len(ph[i].Events), want)
		}
	}
	if ph[1].StartT != 4 || ph[1].EndT != 10 {
		t.Errorf("phase 1 bounds [%v,%v), want [4,10)", ph[1].StartT, ph[1].EndT)
	}
	// The latest end need not be the last-recorded or latest-starting
	// event's.
	events[0].Dur = 15
	if got := TraceEnd(events); got != 16 {
		t.Errorf("TraceEnd = %v, want 16", got)
	}
	if got := TraceEnd(nil); got != 0 {
		t.Errorf("TraceEnd(nil) = %v, want 0", got)
	}
}

func TestPhasesNoMarks(t *testing.T) {
	events := []ipmio.Event{{Start: 1}, {Start: 2}}
	ph := Phases(events, nil, 5)
	if len(ph) != 1 || len(ph[0].Events) != 2 {
		t.Errorf("no-mark phases wrong: %+v", ph)
	}
}

func TestPhasesPrePhase(t *testing.T) {
	events := []ipmio.Event{{Start: 0.5}, {Start: 2}}
	marks := []ipmio.PhaseMark{{Name: "main", T: 1}}
	ph := Phases(events, marks, 5)
	if len(ph) != 2 || ph[0].Name != "pre" || len(ph[0].Events) != 1 {
		t.Errorf("pre-phase handling wrong: %+v", ph)
	}
}

func TestRateSeriesConservesBytes(t *testing.T) {
	events := []ipmio.Event{
		{Op: ipmio.OpWrite, Bytes: 100e6, Start: 0, Dur: 2},
		{Op: ipmio.OpWrite, Bytes: 50e6, Start: 1, Dur: 1},
	}
	s := RateSeries(events, nil, 0.5, 4)
	totalMB := 0.0
	for _, v := range s.Values {
		totalMB += v * float64(s.Dt)
	}
	if math.Abs(totalMB-150) > 1 {
		t.Errorf("series carries %.1f MB, want 150", totalMB)
	}
	// Peak during the overlap second: 50 + 50 = 100 MB/s.
	if math.Abs(s.Peak()-100) > 5 {
		t.Errorf("peak %.1f MB/s, want ~100", s.Peak())
	}
}

func TestRateSeriesFilter(t *testing.T) {
	events := []ipmio.Event{
		{Op: ipmio.OpWrite, Bytes: 100e6, Start: 0, Dur: 1},
		{Op: ipmio.OpRead, Bytes: 400e6, Start: 0, Dur: 1},
	}
	s := RateSeries(events, IsOp(ipmio.OpRead), 0.5, 2)
	if math.Abs(s.Peak()-400) > 10 {
		t.Errorf("filtered peak %.1f, want ~400 (reads only)", s.Peak())
	}
}

func TestSecPerMB(t *testing.T) {
	events := []ipmio.Event{
		{Op: ipmio.OpWrite, Bytes: 2e6, Dur: 4},  // 2 s/MB
		{Op: ipmio.OpWrite, Bytes: 10e6, Dur: 1}, // 0.1 s/MB
		{Op: ipmio.OpWrite, Bytes: 0, Dur: 1},    // unsized: skipped
	}
	d := SecPerMB(events, nil)
	if d.Len() != 2 {
		t.Fatalf("len %d, want 2", d.Len())
	}
	if math.Abs(d.Max()-2) > 1e-9 || math.Abs(d.Min()-0.1) > 1e-9 {
		t.Errorf("sec/MB values wrong: %v", d.Values())
	}
}

func TestTraceDiagramShape(t *testing.T) {
	events := []ipmio.Event{
		{Rank: 0, Op: ipmio.OpWrite, Bytes: 1e6, Start: 0, Dur: 5},
		{Rank: 3, Op: ipmio.OpRead, Bytes: 1e6, Start: 5, Dur: 5},
	}
	dia := TraceDiagram(events, 4, 10, 4, 10)
	lines := strings.Split(strings.TrimRight(dia, "\n"), "\n")
	if len(lines) != 4 || len(lines[0]) != 10 {
		t.Fatalf("diagram shape %dx%d, want 4x10", len(lines), len(lines[0]))
	}
	if lines[0][0] != 'W' {
		t.Errorf("rank 0 early cells = %q, want 'W'", lines[0][0])
	}
	if lines[3][7] != 'R' {
		t.Errorf("rank 3 late cells = %q, want 'R'", lines[3][7])
	}
	if lines[1][0] != '.' {
		t.Errorf("idle cell = %q, want '.'", lines[1][0])
	}
}

// Synthetic trace builders for advisor tests.

func multiModalWrites(n int) []ipmio.Event {
	g := sim.NewRNG(1)
	var out []ipmio.Event
	for i := 0; i < n; i++ {
		var d float64
		switch i % 3 {
		case 0:
			d = g.Normal(8, 0.4)
		case 1:
			d = g.Normal(16, 0.6)
		default:
			d = g.Normal(32, 1.0)
		}
		out = append(out, ipmio.Event{Rank: int32(i), Op: ipmio.OpWrite, Bytes: 512e6, Offset: int64(i) * 512e6, Start: 0, Dur: sim.Duration(d)})
	}
	return out
}

func TestDiagnoseNodeSerialization(t *testing.T) {
	f := Diagnose(multiModalWrites(600), DiagnoseConfig{})
	if !hasCode(f, "node-serialization") {
		t.Errorf("multi-modal writes not diagnosed: %v", f)
	}
}

func TestDiagnoseReadTailAndStride(t *testing.T) {
	g := sim.NewRNG(2)
	var events []ipmio.Event
	for rank := 0; rank < 16; rank++ {
		for i := 0; i < 8; i++ {
			d := g.Normal(5, 0.3)
			if i >= 4 {
				d = 60 * float64(i-3) * g.Lognormal(0, 0.1)
			}
			events = append(events, ipmio.Event{
				Rank: int32(rank), FD: 3, Op: ipmio.OpRead, Bytes: 300e6,
				Offset: int64(i) * 301e6, Start: sim.Time(i * 10), Dur: sim.Duration(d),
			})
		}
	}
	f := Diagnose(events, DiagnoseConfig{})
	if !hasCode(f, "read-tail") {
		t.Errorf("heavy read tail not diagnosed: %v", f)
	}
	if !hasCode(f, "strided-reads") {
		t.Errorf("strided pattern not diagnosed: %v", f)
	}
	// Critical findings sort first.
	if len(f) > 1 && f[0].Severity < f[1].Severity {
		t.Error("findings not sorted by severity")
	}
}

func TestDiagnoseSerializedMetadataAndMisalignmentAndOversubscription(t *testing.T) {
	g := sim.NewRNG(3)
	var events []ipmio.Event
	// 2000 data writers, all unaligned.
	for rank := 0; rank < 2000; rank++ {
		events = append(events, ipmio.Event{
			Rank: int32(rank), Op: ipmio.OpWrite, Bytes: 1600000,
			Offset: int64(rank) * 1600000, Start: 0, Dur: sim.Duration(g.Lognormal(0, 0.2) * 2),
		})
	}
	// Rank 0 spews small metadata writes that dominate time.
	for i := 0; i < 500; i++ {
		events = append(events, ipmio.Event{
			Rank: 0, Op: ipmio.OpWrite, Bytes: 2048,
			Offset: int64(i) * 2048, Start: sim.Time(10 + i), Dur: 5,
		})
	}
	f := Diagnose(events, DiagnoseConfig{})
	for _, code := range []string{"serialized-metadata", "misaligned-writes", "writer-oversubscription"} {
		if !hasCode(f, code) {
			t.Errorf("missing finding %q in %v", code, f)
		}
	}
}

func TestDiagnoseCleanTraceQuiet(t *testing.T) {
	g := sim.NewRNG(4)
	var events []ipmio.Event
	for rank := 0; rank < 64; rank++ {
		events = append(events, ipmio.Event{
			Rank: int32(rank), Op: ipmio.OpWrite, Bytes: 64e6,
			Offset: int64(rank) * 64e6, Start: 0, Dur: sim.Duration(g.Normal(4, 0.2)),
		})
	}
	if f := Diagnose(events, DiagnoseConfig{}); len(f) != 0 {
		t.Errorf("clean trace produced findings: %v", f)
	}
}

func TestReproducibility(t *testing.T) {
	g := sim.NewRNG(5)
	mk := func(shift float64) *ensemble.Dataset {
		d := ensemble.NewDataset(nil)
		for i := 0; i < 3000; i++ {
			d.Add(g.Normal(10+shift, 2))
		}
		return d
	}
	if _, ok := Reproducibility(mk(0), mk(0)); !ok {
		t.Error("same distribution judged not reproducible")
	}
	if _, ok := Reproducibility(mk(0), mk(5)); ok {
		t.Error("shifted distribution judged reproducible")
	}
}

func hasCode(fs []Finding, code string) bool {
	for _, f := range fs {
		if f.Code == code {
			return true
		}
	}
	return false
}
