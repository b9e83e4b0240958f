package tracefmt

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"ensembleio/internal/ipmio"
	"ensembleio/internal/sim"
)

func sampleTrace() ([]ipmio.Event, []ipmio.PhaseMark) {
	events := []ipmio.Event{
		{Rank: 0, Op: ipmio.OpOpen, FD: 3, File: "/scratch/a", Start: 0.5, Dur: 0.001},
		{Rank: 0, Op: ipmio.OpWrite, FD: 3, File: "/scratch/a", Offset: 0, Bytes: 512e6, Start: 1, Dur: 30.25},
		{Rank: 7, Op: ipmio.OpWrite, FD: 3, File: "/scratch/a", Offset: 512e6, Bytes: 512e6, Start: 1, Dur: 8.5},
		{Rank: 7, Op: ipmio.OpSeek, FD: 3, File: "/scratch/a", Offset: 0, Start: 10, Dur: 0},
		{Rank: 7, Op: ipmio.OpRead, FD: 4, File: "/scratch/b", Offset: -1, Bytes: 1600000, Start: 12, Dur: 2.25},
		{Rank: 7, Op: ipmio.OpClose, FD: 4, File: "/scratch/b", Start: 15, Dur: 0.002},
	}
	marks := []ipmio.PhaseMark{
		{Name: "phase0", T: 0},
		{Name: "phase1", T: 11.5},
	}
	return events, marks
}

func TestJSONLRoundTrip(t *testing.T) {
	events, marks := sampleTrace()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events, marks); err != nil {
		t.Fatalf("write: %v", err)
	}
	ev2, mk2, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !reflect.DeepEqual(events, ev2) {
		t.Errorf("events round trip mismatch:\n got %+v\nwant %+v", ev2, events)
	}
	if !reflect.DeepEqual(marks, mk2) {
		t.Errorf("marks round trip mismatch: %+v vs %+v", mk2, marks)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	events, marks := sampleTrace()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, events, marks); err != nil {
		t.Fatalf("write: %v", err)
	}
	ev2, mk2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !reflect.DeepEqual(events, ev2) {
		t.Errorf("events round trip mismatch:\n got %+v\nwant %+v", ev2, events)
	}
	if !reflect.DeepEqual(marks, mk2) {
		t.Errorf("marks mismatch: %+v vs %+v", mk2, marks)
	}
}

func TestBinarySmallerThanJSON(t *testing.T) {
	events, marks := sampleTrace()
	// Amplify to a realistic volume.
	var big []ipmio.Event
	for i := 0; i < 500; i++ {
		big = append(big, events...)
	}
	var jb, bb bytes.Buffer
	if err := WriteJSONL(&jb, big, marks); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bb, big, marks); err != nil {
		t.Fatal(err)
	}
	if bb.Len() >= jb.Len()/2 {
		t.Errorf("binary %d bytes not <2x smaller than JSON %d bytes", bb.Len(), jb.Len())
	}
}

func TestBinaryBadMagic(t *testing.T) {
	if _, _, err := ReadBinary(strings.NewReader("NOTIT\nxxxx")); err == nil {
		t.Error("expected bad-magic error")
	}
}

func TestJSONLBadOp(t *testing.T) {
	if _, _, err := ReadJSONL(strings.NewReader(`{"op":"teleport","t":1}` + "\n")); err == nil {
		t.Error("expected unknown-op error")
	}
}

func TestMergeOrdersByStart(t *testing.T) {
	a := []ipmio.Event{
		{Rank: 0, Op: ipmio.OpWrite, Start: 5},
		{Rank: 0, Op: ipmio.OpWrite, Start: 1},
	}
	b := []ipmio.Event{
		{Rank: 1, Op: ipmio.OpWrite, Start: 3},
	}
	m := Merge(a, b)
	if len(m) != 3 {
		t.Fatalf("merged %d, want 3", len(m))
	}
	var prev sim.Time = -1
	for _, e := range m {
		if e.Start < prev {
			t.Fatal("merge not ordered")
		}
		prev = e.Start
	}
}

func TestEmptyTraceRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, nil, nil); err != nil {
		t.Fatal(err)
	}
	ev, mk, err := ReadBinary(&buf)
	if err != nil || len(ev) != 0 || len(mk) != 0 {
		t.Errorf("empty round trip: ev=%v mk=%v err=%v", ev, mk, err)
	}
}

// TestBinaryRejectsNonFiniteTimes: a NaN or infinite event or mark
// time fails WriteBinary, and ReadBinary rejects an encoding carrying
// one, so every decoded trace is finite.
func TestBinaryRejectsNonFiniteTimes(t *testing.T) {
	const mark = 1234.5 // a finite stand-in, patched in the encoding
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name  string
		bad   float64
		patch func(e *ipmio.Event, m *ipmio.PhaseMark, v float64)
		want  string
	}{
		{"nan start", nan, func(e *ipmio.Event, _ *ipmio.PhaseMark, v float64) { e.Start = sim.Time(v) }, "event 1 has non-finite start"},
		{"inf start", inf, func(e *ipmio.Event, _ *ipmio.PhaseMark, v float64) { e.Start = sim.Time(v) }, "event 1 has non-finite start"},
		{"-inf start", -inf, func(e *ipmio.Event, _ *ipmio.PhaseMark, v float64) { e.Start = sim.Time(v) }, "event 1 has non-finite start"},
		{"nan duration", nan, func(e *ipmio.Event, _ *ipmio.PhaseMark, v float64) { e.Dur = sim.Duration(v) }, "event 1 has non-finite duration"},
		{"inf duration", inf, func(e *ipmio.Event, _ *ipmio.PhaseMark, v float64) { e.Dur = sim.Duration(v) }, "event 1 has non-finite duration"},
		{"nan mark", nan, func(_ *ipmio.Event, m *ipmio.PhaseMark, v float64) { m.T = sim.Time(v) }, "mark 1 has non-finite time"},
		{"-inf mark", -inf, func(_ *ipmio.Event, m *ipmio.PhaseMark, v float64) { m.T = sim.Time(v) }, "mark 1 has non-finite time"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			events, marks := sampleTrace()
			tc.patch(&events[1], &marks[1], tc.bad)
			if err := WriteBinary(io.Discard, events, marks); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("WriteBinary error %v, want %q", err, tc.want)
			}
			// Encode the stand-in, then swap its bits for the bad value.
			events, marks = sampleTrace()
			tc.patch(&events[1], &marks[1], mark)
			var buf bytes.Buffer
			if err := WriteBinary(&buf, events, marks); err != nil {
				t.Fatal(err)
			}
			var good, bad [8]byte
			binary.LittleEndian.PutUint64(good[:], math.Float64bits(mark))
			binary.LittleEndian.PutUint64(bad[:], math.Float64bits(tc.bad))
			enc := bytes.Replace(buf.Bytes(), good[:], bad[:], 1)
			if _, _, err := ReadBinary(bytes.NewReader(enc)); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ReadBinary error %v, want %q", err, tc.want)
			}
		})
	}
}
