package tracefmt

import (
	"bytes"
	"testing"

	"ensembleio/internal/ensemble"
	"ensembleio/internal/ipmio"
)

// Fuzz targets for the persistence layer: decoders must never panic
// on arbitrary input, and anything they accept must re-encode to a
// stable canonical form (decode∘encode is a fixpoint after one
// round). Both properties are what lets analysis tooling ingest
// traces from untrusted or half-written files.

// fuzzSeedEvents is a small trace exercising every field class:
// negative offsets, zero durations, repeated and fresh paths, marks.
func fuzzSeedEvents() ([]ipmio.Event, []ipmio.PhaseMark, *ipmio.Files) {
	files := &ipmio.Files{}
	a, b := files.Intern("/scratch/a"), files.Intern("/scratch/b")
	events := []ipmio.Event{
		{Rank: 0, Op: ipmio.OpOpen, FD: 3, File: a, Start: 0.5, Dur: 0.01},
		{Rank: 1, Op: ipmio.OpWrite, FD: 3, File: a, Offset: 1 << 20, Bytes: 4096, Start: 1.25, Dur: 2.5},
		{Rank: 1, Op: ipmio.OpSeek, FD: 3, File: a, Offset: -512, Start: 4.0},
		{Rank: 2, Op: ipmio.OpRead, FD: 4, File: b, Offset: 0, Bytes: 1 << 16, Start: 4.5, Dur: 0.125},
		{Rank: 0, Op: ipmio.OpClose, FD: 3, File: a, Start: 9.75, Dur: 0.001},
	}
	marks := []ipmio.PhaseMark{{Name: "phase-0", T: 0}, {Name: "phase-1", T: 5.5}}
	return events, marks, files
}

func FuzzTraceDecode(f *testing.F) {
	events, marks, files := fuzzSeedEvents()
	var full bytes.Buffer
	if err := WriteBinary(&full, events, marks, files); err != nil {
		f.Fatal(err)
	}
	f.Add(full.Bytes())
	var short bytes.Buffer
	if err := WriteBinary(&short, events[:1], nil, files); err != nil {
		f.Fatal(err)
	}
	f.Add(short.Bytes())
	f.Add([]byte(binMagic))                             // header only
	f.Add(full.Bytes()[:len(full.Bytes())-3])           // truncated tail
	f.Add(append(full.Bytes(), 0xff, 0xff, 0xff, 0x7f)) // trailing garbage

	f.Fuzz(func(t *testing.T, data []byte) {
		events, marks, files, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return // rejecting bad input is fine; panicking is not
		}
		// Accepted input must re-encode, and the re-encoding must be
		// a canonical fixpoint: decode(encode(x)) encodes to the same
		// bytes again.
		var once bytes.Buffer
		if err := WriteBinary(&once, events, marks, files); err != nil {
			t.Fatalf("re-encoding accepted trace: %v", err)
		}
		ev2, mk2, files2, err := ReadBinary(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("decoding own encoding: %v", err)
		}
		var twice bytes.Buffer
		if err := WriteBinary(&twice, ev2, mk2, files2); err != nil {
			t.Fatalf("second re-encode: %v", err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("encode∘decode is not a fixpoint: %d vs %d bytes", once.Len(), twice.Len())
		}
	})
}

func FuzzTraceDecodeJSONL(f *testing.F) {
	events, marks, files := fuzzSeedEvents()
	var jsonl bytes.Buffer
	if err := WriteJSONL(&jsonl, events, marks, files); err != nil {
		f.Fatal(err)
	}
	f.Add(jsonl.Bytes())
	f.Add([]byte(`{"type":"mark","name":"p","t":1}`))
	f.Add([]byte(`{"r":1,"op":"write","t":0.5}`))
	f.Add([]byte(`{"r":1,"op":"nosuch","t":0.5}`))
	f.Add([]byte("{"))

	f.Fuzz(func(t *testing.T, data []byte) {
		events, marks, files, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, events, marks, files); err != nil {
			t.Fatalf("re-encoding accepted JSONL trace: %v", err)
		}
	})
}

func FuzzProfileJSON(f *testing.F) {
	// A real profile as primary seed.
	h := ensemble.NewHistogram(ensemble.LinearBins(0, 10, 4))
	h.Add(0.5)
	h.Add(3)
	h.AddW(12, 2) // overflow mass
	p := &Profile{
		Durations: map[string]*ensemble.Histogram{"write": h},
		Rates:     map[string]*ensemble.Histogram{},
		Marks:     []profileMark{{Name: "phase-0", T: 1.5}},
	}
	var buf bytes.Buffer
	if err := WriteProfile(&buf, p); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"durations":{},"rates":{}}`))
	f.Add([]byte(`{"durations":{"write":{"edges":[0,1],"counts":[1]}}}`))
	f.Add([]byte(`{"durations":{"write":{"edges":["NaN",1],"counts":[1]}}}`))
	f.Add([]byte(`{"durations":{"write":{"edges":[0],"counts":[]}}}`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadProfile(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever was accepted must survive use and re-encoding.
		for op := ipmio.OpOpen; op <= ipmio.OpFsync; op++ {
			if d := p.Duration(op); d != nil {
				_ = d.Total()
				_ = d.Quantile(0.5)
			}
			if r := p.Rate(op); r != nil {
				_ = r.Mean()
			}
		}
		_ = p.PhaseMarks()
		var out bytes.Buffer
		if err := WriteProfile(&out, p); err != nil {
			t.Fatalf("re-encoding accepted profile: %v", err)
		}
	})
}

// TestReadBinaryLengthBomb pins the allocation guard: a record
// claiming a multi-gigabyte path must be rejected, not allocated.
func TestReadBinaryLengthBomb(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(binMagic)
	buf.WriteByte(kindMark)
	// Uvarint for 2^40: far beyond maxStringLen.
	buf.Write([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02})
	if _, _, _, err := ReadBinary(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("expected error for absurd string length, got nil")
	}
}

// TestProfileRejectsNonFinite pins the histogram JSON hardening.
func TestProfileRejectsNonFinite(t *testing.T) {
	cases := []string{
		`{"durations":{"write":{"edges":[0,"NaN"],"counts":[1]}}}`,
		`{"durations":{"write":{"edges":[0,1],"counts":[-3]}}}`,
		`{"durations":{"write":{"edges":[0,1],"counts":["Infinity"]}}}`,
	}
	for _, c := range cases {
		if _, err := ReadProfile(bytes.NewReader([]byte(c))); err == nil {
			t.Errorf("profile %s accepted, want error", c)
		}
	}
}
