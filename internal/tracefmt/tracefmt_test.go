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

func sampleTrace() ([]ipmio.Event, []ipmio.PhaseMark, *ipmio.Files) {
	files := &ipmio.Files{}
	a, b := files.Intern("/scratch/a"), files.Intern("/scratch/b")
	events := []ipmio.Event{
		{Rank: 0, Op: ipmio.OpOpen, FD: 3, File: a, Start: 0.5, Dur: 0.001},
		{Rank: 0, Op: ipmio.OpWrite, FD: 3, File: a, Offset: 0, Bytes: 512e6, Start: 1, Dur: 30.25},
		{Rank: 7, Op: ipmio.OpWrite, FD: 3, File: a, Offset: 512e6, Bytes: 512e6, Start: 1, Dur: 8.5},
		{Rank: 7, Op: ipmio.OpSeek, FD: 3, File: a, Offset: 0, Start: 10, Dur: 0},
		{Rank: 7, Op: ipmio.OpRead, FD: 4, File: b, Offset: -1, Bytes: 1600000, Start: 12, Dur: 2.25},
		{Rank: 7, Op: ipmio.OpClose, FD: 4, File: b, Start: 15, Dur: 0.002},
	}
	marks := []ipmio.PhaseMark{
		{Name: "phase0", T: 0},
		{Name: "phase1", T: 11.5},
	}
	return events, marks, files
}

// sameFiles reports whether two file tables name the same paths under
// the same ids.
func sameFiles(a, b *ipmio.Files) bool {
	if a.Len() != b.Len() {
		return false
	}
	for id := 0; id < a.Len(); id++ {
		if a.Name(uint32(id)) != b.Name(uint32(id)) {
			return false
		}
	}
	return true
}

func TestJSONLRoundTrip(t *testing.T) {
	events, marks, files := sampleTrace()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events, marks, files); err != nil {
		t.Fatalf("write: %v", err)
	}
	ev2, mk2, files2, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !sameFiles(files, files2) {
		t.Errorf("file table round trip mismatch: %d vs %d ids", files2.Len(), files.Len())
	}
	if !reflect.DeepEqual(events, ev2) {
		t.Errorf("events round trip mismatch:\n got %+v\nwant %+v", ev2, events)
	}
	if !reflect.DeepEqual(marks, mk2) {
		t.Errorf("marks round trip mismatch: %+v vs %+v", mk2, marks)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	events, marks, files := sampleTrace()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, events, marks, files); err != nil {
		t.Fatalf("write: %v", err)
	}
	ev2, mk2, files2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !sameFiles(files, files2) {
		t.Errorf("file table round trip mismatch: %d vs %d ids", files2.Len(), files.Len())
	}
	if !reflect.DeepEqual(events, ev2) {
		t.Errorf("events round trip mismatch:\n got %+v\nwant %+v", ev2, events)
	}
	if !reflect.DeepEqual(marks, mk2) {
		t.Errorf("marks mismatch: %+v vs %+v", mk2, marks)
	}
}

func TestBinarySmallerThanJSON(t *testing.T) {
	events, marks, files := sampleTrace()
	// Amplify to a realistic volume.
	var big []ipmio.Event
	for i := 0; i < 500; i++ {
		big = append(big, events...)
	}
	var jb, bb bytes.Buffer
	if err := WriteJSONL(&jb, big, marks, files); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bb, big, marks, files); err != nil {
		t.Fatal(err)
	}
	if bb.Len() >= jb.Len()/2 {
		t.Errorf("binary %d bytes not <2x smaller than JSON %d bytes", bb.Len(), jb.Len())
	}
}

func TestBinaryBadMagic(t *testing.T) {
	if _, _, _, err := ReadBinary(strings.NewReader("NOTIT\nxxxx")); err == nil {
		t.Error("expected bad-magic error")
	}
}

func TestJSONLBadOp(t *testing.T) {
	if _, _, _, err := ReadJSONL(strings.NewReader(`{"op":"teleport","t":1}` + "\n")); err == nil {
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
	m, _ := Merge(Trace{Events: a}, Trace{Events: b})
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

// TestMergeRemapsFileIDs: each input's ids index its own table; the
// merged events name the same paths through the merged table, and a
// path two inputs share gets one id.
func TestMergeRemapsFileIDs(t *testing.T) {
	fa, fb := &ipmio.Files{}, &ipmio.Files{}
	a := []ipmio.Event{
		{Rank: 0, Op: ipmio.OpWrite, File: fa.Intern("/scratch/shared"), Start: 2},
		{Rank: 0, Op: ipmio.OpWrite, File: fa.Intern("/scratch/a"), Start: 4},
		{Rank: 0, Op: ipmio.OpSeek, Start: 5},
	}
	b := []ipmio.Event{
		{Rank: 1, Op: ipmio.OpWrite, File: fb.Intern("/scratch/b"), Start: 1},
		{Rank: 1, Op: ipmio.OpWrite, File: fb.Intern("/scratch/shared"), Start: 3},
		{Rank: 1, Op: ipmio.OpWrite, File: 99, Start: 6}, // not in fb: no file
	}
	m, files := Merge(Trace{Events: a, Files: fa}, Trace{Events: b, Files: fb})
	want := []string{"/scratch/b", "/scratch/shared", "/scratch/shared", "/scratch/a", "", ""}
	if len(m) != len(want) {
		t.Fatalf("merged %d events, want %d", len(m), len(want))
	}
	for i, e := range m {
		if got := files.Name(e.File); got != want[i] {
			t.Errorf("event %d names %q, want %q", i, got, want[i])
		}
	}
	if m[1].File != m[2].File {
		t.Errorf("shared path has ids %d and %d, want one", m[1].File, m[2].File)
	}
	if files.Len() != 4 {
		t.Errorf("merged table holds %d ids, want 4 (none and three paths)", files.Len())
	}
}

func TestEmptyTraceRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	ev, mk, _, err := ReadBinary(&buf)
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
			events, marks, files := sampleTrace()
			tc.patch(&events[1], &marks[1], tc.bad)
			if err := WriteBinary(io.Discard, events, marks, files); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("WriteBinary error %v, want %q", err, tc.want)
			}
			// Encode the stand-in, then swap its bits for the bad value.
			events, marks, files = sampleTrace()
			tc.patch(&events[1], &marks[1], mark)
			var buf bytes.Buffer
			if err := WriteBinary(&buf, events, marks, files); err != nil {
				t.Fatal(err)
			}
			var good, bad [8]byte
			binary.LittleEndian.PutUint64(good[:], math.Float64bits(mark))
			binary.LittleEndian.PutUint64(bad[:], math.Float64bits(tc.bad))
			enc := bytes.Replace(buf.Bytes(), good[:], bad[:], 1)
			if _, _, _, err := ReadBinary(bytes.NewReader(enc)); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ReadBinary error %v, want %q", err, tc.want)
			}
		})
	}
}
