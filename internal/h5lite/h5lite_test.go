package h5lite

import (
	"testing"

	"ensembleio/internal/posixio"
	"ensembleio/internal/sim"
)

// recIO records calls without any timing simulation. It completes
// every call with an event at the current instant, as an IO whose
// calls park would, so no call completes before it returns.
type recIO struct {
	eng    *sim.Engine
	writes []struct{ off, n int64 }
	reads  []struct{ off, n int64 }
	opens  int
	closes int
}

func newRecIO() *recIO { return &recIO{eng: sim.NewEngine()} }

func (m *recIO) complete(k posixio.Done, n int64) {
	m.eng.At(m.eng.Now(), func() { k(n, nil) })
}

func (m *recIO) Open(path string, flags int, k posixio.Done) int {
	m.opens++
	m.complete(k, 3)
	return 3
}

func (m *recIO) Close(fd int, k posixio.Done) {
	m.closes++
	m.complete(k, 0)
}

func (m *recIO) Pwrite(fd int, off, n int64, k posixio.Done) {
	m.writes = append(m.writes, struct{ off, n int64 }{off, n})
	m.complete(k, n)
}

func (m *recIO) Pread(fd int, off, n int64, k posixio.Done) {
	m.reads = append(m.reads, struct{ off, n int64 }{off, n})
	m.complete(k, n)
}

var _ IO = (*recIO)(nil)
var _ IO = (*posixio.Task)(nil)

// step is one step of a test script: it issues at most one File call
// with completion k (calling k itself if it issues none) and gets the
// previous call's error.
type step func(err error, k posixio.Done)

// run drives steps in order on io's engine; a step's error fails the
// test unless the next step takes it (see expectErr).
func run(t *testing.T, io *recIO, steps ...step) {
	t.Helper()
	i := 0
	var next posixio.Done
	next = func(_ int64, err error) {
		if i == len(steps) {
			if err != nil {
				t.Error(err)
			}
			return
		}
		i++
		steps[i-1](err, next)
	}
	io.eng.At(0, func() { next(0, nil) })
	io.eng.Run()
	if i != len(steps) {
		t.Fatalf("script stopped after %d of %d steps", i, len(steps))
	}
}

// call wraps a File call as a step that fails the test on the previous
// call's error.
func call(t *testing.T, issue func(k posixio.Done)) step {
	return func(err error, k posixio.Done) {
		if err != nil {
			t.Error(err)
		}
		issue(k)
	}
}

// expectErr is a step that issues a File call expected to fail.
func expectErr(t *testing.T, what string, issue func(k posixio.Done)) step {
	return call(t, func(k posixio.Done) {
		issue(func(_ int64, err error) {
			if err == nil {
				t.Errorf("%s accepted", what)
			}
			k(0, nil)
		})
	})
}

// open lays out specs under opts and returns one rank's file on that
// layout with the step that creates it.
func open(t *testing.T, io IO, opts FileOpts, metaWriter bool, specs ...DatasetSpec) (*File, step) {
	f := NewFile(io, NewLayout(opts, specs), metaWriter)
	return f, call(t, func(k posixio.Done) { f.Create("/scratch/g.h5", k) })
}

func TestPackedLayoutIsUnaligned(t *testing.T) {
	io := newRecIO()
	f, create := open(t, io, FileOpts{}, true, DatasetSpec{"wind", 1600000, 4, 10})
	run(t, io, create, call(t, func(k posixio.Done) {
		ds := f.l.Dataset(0)
		if ds.Stride != 1600000 {
			t.Errorf("packed stride %d, want 1600000", ds.Stride)
		}
		if ds.Base != 4096 {
			t.Errorf("first dataset base %d, want 4096 (after superblock)", ds.Base)
		}
		if off := ds.RecordOffset(2); off != 4096+2*1600000 {
			t.Errorf("record 2 offset %d", off)
		}
		// 1.6 MB records at these offsets cross 1 MB stripes unaligned.
		if ds.RecordOffset(1)%1e6 == 0 {
			t.Error("packed layout unexpectedly stripe aligned")
		}
		f.WriteRecord(0, 0, k)
	}), call(t, f.Close))
	// superblock + record + close
	if io.writes[1].n != 1600000 || io.writes[1].off != 4096 {
		t.Errorf("record write at %d/%d, want 4096/1600000", io.writes[1].off, io.writes[1].n)
	}
}

func TestAlignedLayoutPadsStrides(t *testing.T) {
	io := newRecIO()
	f, create := open(t, io, FileOpts{Alignment: 1e6}, true, DatasetSpec{"wind", 1600000, 8, 10})
	run(t, io, create, call(t, func(k posixio.Done) {
		ds := f.l.Dataset(0)
		if ds.Stride != 2e6 {
			t.Errorf("aligned stride %d, want 2e6", ds.Stride)
		}
		if ds.Base != 1e6 {
			t.Errorf("aligned base %d, want 1e6", ds.Base)
		}
		for i := 0; i < 8; i++ {
			if off := ds.RecordOffset(i); off%1e6 != 0 {
				t.Errorf("record %d offset %d not 1MB aligned", i, off)
			}
		}
		f.WriteRecord(0, 3, k)
	}), call(t, f.Close))
	last := io.writes[len(io.writes)-1] // the record write
	if last.n != 2e6 || last.off != 7e6 {
		t.Errorf("aligned record write off=%d n=%d, want 7e6/2e6", last.off, last.n)
	}
}

func TestImmediateMetadataWritesSmallOps(t *testing.T) {
	io := newRecIO()
	f, create := open(t, io, FileOpts{}, true, DatasetSpec{"v", 1600000, 2, 25})
	run(t, io, create, call(t, func(k posixio.Done) { f.FlushMetadata(0, k) }), call(t, f.Close))
	small := 0
	for i, w := range io.writes {
		if w.n == 2048 {
			// The region follows the records: 4096 + 2 x 1.6 MB.
			if want := int64(4096 + 2*1600000 + 2048*small); w.off != want {
				t.Errorf("metadata write %d at %d, want %d", i, w.off, want)
			}
			small++
		}
	}
	if small != 25 {
		t.Errorf("%d small metadata writes, want 25", small)
	}
}

func TestAlignedMetadataRegionIsPageAligned(t *testing.T) {
	io := newRecIO()
	f, create := open(t, io, FileOpts{Alignment: 1e6}, true,
		DatasetSpec{"a", 1600000, 2, 3}, DatasetSpec{"b", 1600000, 2, 3})
	if got := f.l.Dataset(0).MetaBase; got != 5001216 {
		t.Errorf("a's metadata region at %d, want 5001216 (page after 5e6)", got)
	}
	if got := f.l.Dataset(1).Base; got != 6e6 {
		t.Errorf("b's base %d, want 6e6", got)
	}
	flushB := call(t, func(k posixio.Done) { f.FlushMetadata(1, k) })
	run(t, io, create, flushB, flushB, call(t, f.Close))
	// Superblock, then b's 3 + 3 page-sized ops from its region on.
	if len(io.writes) != 7 {
		t.Fatalf("%d writes, want 7", len(io.writes))
	}
	for i, w := range io.writes[1:] {
		if want := int64(10002432 + 4096*i); w.off != want || w.n != 4096 {
			t.Errorf("metadata write %d at %d/%d, want %d/4096", i, w.off, w.n, want)
		}
	}
}

func TestAggregatedMetadataDeferredToClose(t *testing.T) {
	io := newRecIO()
	f, create := open(t, io, FileOpts{AggregateMetadata: true, Alignment: 1e6}, true,
		DatasetSpec{"a", 1600000, 2, 300}, DatasetSpec{"b", 1600000, 2, 300})
	run(t, io, create,
		call(t, func(k posixio.Done) { f.FlushMetadata(0, k) }),
		call(t, func(k posixio.Done) { f.FlushMetadata(1, k) }),
		call(t, func(k posixio.Done) {
			// No metadata written yet (only the superblock).
			if len(io.writes) != 1 {
				t.Errorf("%d writes before close, want 1 (superblock)", len(io.writes))
			}
			if end := f.l.end; end != 9e6 {
				t.Errorf("layout end %d, want 9e6 (no metadata regions)", end)
			}
			f.Close(k)
		}))
	// Aligned mode pads ops to 4096 B: 600 x 4096 B = 2.4576 MB ->
	// two 1 MB writes plus one tail padded up to 1 MB, from the
	// aligned end of the data on.
	meta := io.writes[1:]
	if len(meta) != 3 {
		t.Fatalf("aggregated metadata writes %v, want 3 chunks", meta)
	}
	for i, w := range meta {
		if want := int64(9e6 + 1e6*i); w.off != want || w.n != 1e6 {
			t.Errorf("chunk %d at %d/%d bytes, want %d/1e6 (aligned)", i, w.off, w.n, want)
		}
	}
}

func TestAggregatedMetadataPackedTail(t *testing.T) {
	io := newRecIO()
	f, create := open(t, io, FileOpts{AggregateMetadata: true}, true, DatasetSpec{"a", 1600000, 2, 600})
	run(t, io, create, call(t, func(k posixio.Done) { f.FlushMetadata(0, k) }), call(t, f.Close))
	// 600 x 2048 B = 1.2288 MB from the packed end (4096 + 3.2 MB):
	// one 1 MB write and an unpadded tail.
	want := []struct{ off, n int64 }{{3204096, 1e6}, {4204096, 228800}}
	if len(io.writes) != 3 || io.writes[1] != want[0] || io.writes[2] != want[1] {
		t.Errorf("aggregated writes %v, want superblock then %v", io.writes, want)
	}
}

func TestNonMetadataWriterSkipsMetadata(t *testing.T) {
	io := newRecIO()
	f, create := open(t, io, FileOpts{}, false, DatasetSpec{"v", 1600000, 2, 25})
	run(t, io, create, call(t, func(k posixio.Done) { f.FlushMetadata(0, k) }), call(t, f.Close))
	if len(io.writes) != 0 {
		t.Errorf("non-writer rank issued %d metadata writes", len(io.writes))
	}
}

func TestLayoutAgreementAcrossRanks(t *testing.T) {
	l := NewLayout(FileOpts{Alignment: 1e6}, []DatasetSpec{{"a", 1600000, 100, 50}, {"b", 1600000, 100, 50}})
	offset := func(metaWriter bool) int64 {
		io := newRecIO()
		f := NewFile(io, l, metaWriter)
		run(t, io, call(t, func(k posixio.Done) { f.Create("/x", k) }),
			call(t, func(k posixio.Done) { f.WriteRecord(1, 5, k) }))
		return io.writes[len(io.writes)-1].off
	}
	if w, r := offset(true), offset(false); w != r || w != l.Dataset(1).RecordOffset(5) {
		t.Fatalf("record b[5] at %d (metadata writer) vs %d (other rank)", w, r)
	}
}

func TestWriteRecordOutOfRange(t *testing.T) {
	io := newRecIO()
	f, create := open(t, io, FileOpts{}, false, DatasetSpec{"v", 100, 2, 0})
	run(t, io, create,
		expectErr(t, "out-of-range record", func(k posixio.Done) { f.WriteRecord(0, 2, k) }),
		expectErr(t, "negative record", func(k posixio.Done) { f.WriteRecord(0, -1, k) }))
	if len(io.writes) != 0 {
		t.Errorf("%d writes issued for rejected records", len(io.writes))
	}
}

func TestDoubleCloseFails(t *testing.T) {
	io := newRecIO()
	f, create := open(t, io, FileOpts{}, false)
	run(t, io, create, call(t, f.Close), expectErr(t, "double close", f.Close))
	if io.closes != 1 {
		t.Errorf("%d closes reached the IO, want 1", io.closes)
	}
}

func TestDatasetsDoNotOverlap(t *testing.T) {
	l := NewLayout(FileOpts{}, []DatasetSpec{{"a", 1600000, 10, 30}, {"b", 1600000, 10, 30}})
	a, b := l.Dataset(0), l.Dataset(1)
	endA := a.RecordOffset(9) + a.RecordBytes + int64(30)*2048
	if b.Base < endA {
		t.Errorf("dataset b base %d overlaps a's extent ending %d", b.Base, endA)
	}
}

func TestReadRecord(t *testing.T) {
	io := newRecIO()
	f, create := open(t, io, FileOpts{}, false, DatasetSpec{"v", 1600000, 4, 0})
	run(t, io, create,
		call(t, func(k posixio.Done) { f.ReadRecord(0, 2, k) }),
		expectErr(t, "out-of-range read", func(k posixio.Done) { f.ReadRecord(0, 4, k) }))
	if len(io.reads) != 1 {
		t.Fatalf("%d reads, want 1", len(io.reads))
	}
	if io.reads[0].off != 4096+2*1600000 || io.reads[0].n != 1600000 {
		t.Errorf("read at %d/%d, want record 2", io.reads[0].off, io.reads[0].n)
	}
}
