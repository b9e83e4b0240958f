package h5lite

import (
	"testing"

	"ensembleio/internal/posixio"
	"ensembleio/internal/sim"
)

// recIO records Pwrite calls without any timing simulation.
type recIO struct {
	writes []struct{ off, n int64 }
	reads  []struct{ off, n int64 }
	opens  int
	closes int
}

func (m *recIO) Open(p *sim.Proc, path string, flags int) (int, error) {
	m.opens++
	return 3, nil
}
func (m *recIO) Close(p *sim.Proc, fd int) error {
	m.closes++
	return nil
}
func (m *recIO) Pwrite(p *sim.Proc, fd int, off, n int64) (int64, error) {
	m.writes = append(m.writes, struct{ off, n int64 }{off, n})
	return n, nil
}

func (m *recIO) Pread(p *sim.Proc, fd int, off, n int64) (int64, error) {
	m.reads = append(m.reads, struct{ off, n int64 }{off, n})
	return n, nil
}

var _ IO = (*recIO)(nil)
var _ IO = (*tracerShim)(nil)

// tracerShim proves posixio.Task satisfies the surface via adaptation.
type tracerShim struct{ t *posixio.Task }

func (s *tracerShim) Open(p *sim.Proc, path string, flags int) (int, error) {
	return s.t.Open(p, path, flags)
}
func (s *tracerShim) Close(p *sim.Proc, fd int) error { return s.t.Close(p, fd) }
func (s *tracerShim) Pwrite(p *sim.Proc, fd int, off, n int64) (int64, error) {
	return s.t.Pwrite(p, fd, off, n)
}

func (s *tracerShim) Pread(p *sim.Proc, fd int, off, n int64) (int64, error) {
	return s.t.Pread(p, fd, off, n)
}

func run(t *testing.T, body func(p *sim.Proc)) {
	t.Helper()
	eng := sim.NewEngine()
	eng.Spawn("t", body)
	eng.Run()
}

// open lays out specs under opts and opens one file on that layout.
func open(t *testing.T, p *sim.Proc, io IO, opts FileOpts, metaWriter bool, specs ...DatasetSpec) *File {
	t.Helper()
	f, err := Create(p, io, "/scratch/g.h5", NewLayout(opts, specs), metaWriter)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestPackedLayoutIsUnaligned(t *testing.T) {
	io := &recIO{}
	run(t, func(p *sim.Proc) {
		f := open(t, p, io, FileOpts{}, true, DatasetSpec{"wind", 1600000, 4, 10})
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
		f.WriteRecord(p, 0, 0)
		f.Close(p)
	})
	// superblock + record + close
	if io.writes[1].n != 1600000 || io.writes[1].off != 4096 {
		t.Errorf("record write at %d/%d, want 4096/1600000", io.writes[1].off, io.writes[1].n)
	}
}

func TestAlignedLayoutPadsStrides(t *testing.T) {
	io := &recIO{}
	run(t, func(p *sim.Proc) {
		f := open(t, p, io, FileOpts{Alignment: 1e6}, true, DatasetSpec{"wind", 1600000, 8, 10})
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
		f.WriteRecord(p, 0, 3)
		f.Close(p)
	})
	last := io.writes[len(io.writes)-1] // the record write
	if last.n != 2e6 || last.off != 7e6 {
		t.Errorf("aligned record write off=%d n=%d, want 7e6/2e6", last.off, last.n)
	}
}

func TestImmediateMetadataWritesSmallOps(t *testing.T) {
	io := &recIO{}
	run(t, func(p *sim.Proc) {
		f := open(t, p, io, FileOpts{}, true, DatasetSpec{"v", 1600000, 2, 25})
		f.FlushMetadata(p, 0)
		f.Close(p)
	})
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
	io := &recIO{}
	run(t, func(p *sim.Proc) {
		f := open(t, p, io, FileOpts{Alignment: 1e6}, true,
			DatasetSpec{"a", 1600000, 2, 3}, DatasetSpec{"b", 1600000, 2, 3})
		if got := f.l.Dataset(0).MetaBase; got != 5001216 {
			t.Errorf("a's metadata region at %d, want 5001216 (page after 5e6)", got)
		}
		if got := f.l.Dataset(1).Base; got != 6e6 {
			t.Errorf("b's base %d, want 6e6", got)
		}
		f.FlushMetadata(p, 1)
		f.FlushMetadata(p, 1)
		f.Close(p)
	})
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
	io := &recIO{}
	run(t, func(p *sim.Proc) {
		f := open(t, p, io, FileOpts{AggregateMetadata: true, Alignment: 1e6}, true,
			DatasetSpec{"a", 1600000, 2, 300}, DatasetSpec{"b", 1600000, 2, 300})
		f.FlushMetadata(p, 0)
		f.FlushMetadata(p, 1)
		// No metadata written yet (only the superblock).
		if len(io.writes) != 1 {
			t.Fatalf("%d writes before close, want 1 (superblock)", len(io.writes))
		}
		if end := f.l.end; end != 9e6 {
			t.Errorf("layout end %d, want 9e6 (no metadata regions)", end)
		}
		f.Close(p)
	})
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
	io := &recIO{}
	run(t, func(p *sim.Proc) {
		f := open(t, p, io, FileOpts{AggregateMetadata: true}, true, DatasetSpec{"a", 1600000, 2, 600})
		f.FlushMetadata(p, 0)
		f.Close(p)
	})
	// 600 x 2048 B = 1.2288 MB from the packed end (4096 + 3.2 MB):
	// one 1 MB write and an unpadded tail.
	want := []struct{ off, n int64 }{{3204096, 1e6}, {4204096, 228800}}
	if len(io.writes) != 3 || io.writes[1] != want[0] || io.writes[2] != want[1] {
		t.Errorf("aggregated writes %v, want superblock then %v", io.writes, want)
	}
}

func TestNonMetadataWriterSkipsMetadata(t *testing.T) {
	io := &recIO{}
	run(t, func(p *sim.Proc) {
		f := open(t, p, io, FileOpts{}, false, DatasetSpec{"v", 1600000, 2, 25})
		f.FlushMetadata(p, 0)
		f.Close(p)
	})
	if len(io.writes) != 0 {
		t.Errorf("non-writer rank issued %d metadata writes", len(io.writes))
	}
}

func TestLayoutAgreementAcrossRanks(t *testing.T) {
	l := NewLayout(FileOpts{Alignment: 1e6}, []DatasetSpec{{"a", 1600000, 100, 50}, {"b", 1600000, 100, 50}})
	offset := func(metaWriter bool) int64 {
		io := &recIO{}
		run(t, func(p *sim.Proc) {
			f, _ := Create(p, io, "/x", l, metaWriter)
			f.WriteRecord(p, 1, 5)
		})
		return io.writes[len(io.writes)-1].off
	}
	if w, r := offset(true), offset(false); w != r || w != l.Dataset(1).RecordOffset(5) {
		t.Fatalf("record b[5] at %d (metadata writer) vs %d (other rank)", w, r)
	}
}

func TestWriteRecordOutOfRange(t *testing.T) {
	io := &recIO{}
	run(t, func(p *sim.Proc) {
		f := open(t, p, io, FileOpts{}, false, DatasetSpec{"v", 100, 2, 0})
		if err := f.WriteRecord(p, 0, 2); err == nil {
			t.Error("out-of-range record accepted")
		}
		if err := f.WriteRecord(p, 0, -1); err == nil {
			t.Error("negative record accepted")
		}
	})
}

func TestDoubleCloseFails(t *testing.T) {
	io := &recIO{}
	run(t, func(p *sim.Proc) {
		f := open(t, p, io, FileOpts{}, false)
		if err := f.Close(p); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(p); err == nil {
			t.Error("double close accepted")
		}
	})
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
	io := &recIO{}
	run(t, func(p *sim.Proc) {
		f := open(t, p, io, FileOpts{}, false, DatasetSpec{"v", 1600000, 4, 0})
		if err := f.ReadRecord(p, 0, 2); err != nil {
			t.Fatal(err)
		}
		if err := f.ReadRecord(p, 0, 4); err == nil {
			t.Error("out-of-range read accepted")
		}
	})
	if len(io.reads) != 1 {
		t.Fatalf("%d reads, want 1", len(io.reads))
	}
	if io.reads[0].off != 4096+2*1600000 || io.reads[0].n != 1600000 {
		t.Errorf("read at %d/%d, want record 2", io.reads[0].off, io.reads[0].n)
	}
}
