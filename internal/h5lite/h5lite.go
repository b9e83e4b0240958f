// Package h5lite is a simplified hierarchical data-format library in
// the spirit of HDF5 + the H5Part veneer, reproducing the POSIX-level
// I/O pattern that matters to the GCRM study (§V):
//
//   - fixed-size records written by many tasks into shared datasets in
//     one file;
//   - a stream of small (~kB) metadata writes — object headers, chunk
//     index entries — issued serially by the metadata-writing rank
//     after each dataset flush (the red activity in Figure 6a);
//   - an optional alignment property that pads record strides to
//     stripe boundaries (the Figure 6g optimization);
//   - an optional aggregated-metadata mode that defers all metadata
//     into one large write at file close (the Figure 6j optimization).
//
// A Layout computes every offset once per job from the creation
// schema, and every rank's File shares it, as HDF5 collective mode
// has every rank agree on one layout. A File holds only its
// descriptor, its I/O surface and its role.
package h5lite

import (
	"errors"
	"fmt"

	"ensembleio/internal/posixio"
	"ensembleio/internal/sim"
)

// IO is the POSIX surface h5lite drives; *ipmio.Tracer and
// *posixio.Task both satisfy it via thin adapters or directly.
type IO interface {
	Open(p *sim.Proc, path string, flags int) (int, error)
	Close(p *sim.Proc, fd int) error
	Pwrite(p *sim.Proc, fd int, offset, n int64) (int64, error)
	Pread(p *sim.Proc, fd int, offset, n int64) (int64, error)
}

// FileOpts configures a file's layout.
type FileOpts struct {
	// Alignment pads dataset bases and record strides to this many
	// bytes (0 = packed layout, the GCRM baseline).
	Alignment int64
	// AggregateMetadata defers every metadata write into a single
	// buffer flushed as large write(s) at Close.
	AggregateMetadata bool
	// MetaOpBytes is the size of one metadata write (default 2048,
	// matching the paper's "<3 KB").
	MetaOpBytes int64
	// SuperblockBytes reserves the file header region (default 4096).
	SuperblockBytes int64
}

// page is the file-system page size metadata blocks are padded to in
// an aligned file.
const page = 4096

func (o *FileOpts) defaults() {
	if o.MetaOpBytes == 0 {
		o.MetaOpBytes = 2048
	}
	if o.Alignment > 0 {
		// An alignment-tuned file also pads metadata blocks to whole
		// file-system pages at page offsets, which is what lets the
		// metadata path dodge partial-page lock bouncing (the paper's
		// "metadata operations benefited somewhat from alignment").
		o.MetaOpBytes = roundUp(o.MetaOpBytes, page)
	}
	if o.SuperblockBytes == 0 {
		o.SuperblockBytes = 4096
	}
}

func roundUp(x, a int64) int64 {
	if a <= 0 {
		return x
	}
	return (x + a - 1) / a * a
}

// DatasetSpec declares one dataset: NRecords fixed-size records of
// RecordBytes each, and MetaOps small metadata writes per
// FlushMetadata (chunk index scale).
type DatasetSpec struct {
	Name        string
	RecordBytes int64
	NRecords    int
	MetaOps     int
}

// Dataset is one named record array's place in the file.
type Dataset struct {
	DatasetSpec
	Stride   int64 // record allocation pitch (>= RecordBytes)
	Base     int64 // file offset of record 0
	MetaBase int64 // reserved metadata region (immediate mode only)
}

// RecordOffset returns the file offset of record idx.
func (d *Dataset) RecordOffset(idx int) int64 {
	return d.Base + int64(idx)*d.Stride
}

// Layout is a file's options and dataset extents, computed once and
// shared read-only by every rank's File.
type Layout struct {
	opts     FileOpts
	datasets []Dataset
	end      int64 // first byte past the last extent
}

// NewLayout allocates the datasets' extents in declaration order after
// the superblock: each dataset's records, then (in immediate mode)
// its metadata region.
func NewLayout(opts FileOpts, specs []DatasetSpec) *Layout {
	opts.defaults()
	l := &Layout{opts: opts, datasets: make([]Dataset, len(specs))}
	cursor := opts.SuperblockBytes
	for i, s := range specs {
		d := &l.datasets[i]
		d.DatasetSpec = s
		d.Stride = roundUp(s.RecordBytes, opts.Alignment)
		d.Base = roundUp(cursor, opts.Alignment)
		cursor = d.Base + int64(s.NRecords)*d.Stride
		if !opts.AggregateMetadata {
			// Reserve an immediate metadata region after the data. In
			// aligned mode the region starts on a page boundary so its
			// page-sized ops stay page-aligned (note that a decimal-MB
			// stripe boundary is not itself page-aligned).
			d.MetaBase = cursor
			if opts.Alignment > 0 {
				d.MetaBase = roundUp(d.MetaBase, page)
			}
			cursor = d.MetaBase + int64(s.MetaOps)*opts.MetaOpBytes
		}
	}
	l.end = cursor
	return l
}

// Dataset returns dataset i, in declaration order.
func (l *Layout) Dataset(i int) *Dataset { return &l.datasets[i] }

// MetaOpBytes returns the effective size of one metadata write.
func (l *Layout) MetaOpBytes() int64 { return l.opts.MetaOpBytes }

// File is one rank's open h5lite file.
type File struct {
	io         IO
	fd         int
	l          *Layout
	metaWriter bool
	closed     bool

	// The metadata writer's flush state: bytes awaiting Close in
	// aggregated mode, or each dataset's next metadata offset in
	// immediate mode.
	pendingMeta int64
	metaCursor  []int64
}

// Create creates (or, for non-creating ranks, opens) the file with
// layout l. The metadata writer (HDF5 funnels metadata through one
// writer; GCRM used task 0) writes the superblock.
func Create(p *sim.Proc, io IO, path string, l *Layout, metadataWriter bool) (*File, error) {
	fd, err := io.Open(p, path, posixio.OCreat|posixio.ORdwr)
	if err != nil {
		return nil, fmt.Errorf("h5lite: create %s: %w", path, err)
	}
	f := &File{io: io, fd: fd, l: l, metaWriter: metadataWriter}
	if metadataWriter {
		if !l.opts.AggregateMetadata {
			f.metaCursor = make([]int64, len(l.datasets))
			for i := range l.datasets {
				f.metaCursor[i] = l.datasets[i].MetaBase
			}
		}
		if err := f.metaWrite(p, 0, l.opts.SuperblockBytes); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// record checks idx against dataset ds's extent.
func (f *File) record(ds, idx int) (*Dataset, error) {
	d := f.l.Dataset(ds)
	if idx < 0 || idx >= d.NRecords {
		return nil, fmt.Errorf("h5lite: record %d out of range [0,%d)", idx, d.NRecords)
	}
	return d, nil
}

// WriteRecord writes record idx of dataset ds. With alignment enabled
// the write is padded to the full stride so it lands as whole-stripe
// RPCs.
func (f *File) WriteRecord(p *sim.Proc, ds, idx int) error {
	d, err := f.record(ds, idx)
	if err != nil {
		return err
	}
	n := d.RecordBytes
	if f.l.opts.Alignment > 0 {
		n = d.Stride
	}
	_, err = f.io.Pwrite(p, f.fd, d.RecordOffset(idx), n)
	return err
}

// ReadRecord reads record idx of dataset ds back (the
// analysis/visualization path of the GCRM pipeline). It returns an
// error for out-of-range indices or short reads.
func (f *File) ReadRecord(p *sim.Proc, ds, idx int) error {
	d, err := f.record(ds, idx)
	if err != nil {
		return err
	}
	n, err := f.io.Pread(p, f.fd, d.RecordOffset(idx), d.RecordBytes)
	if err != nil {
		return err
	}
	if n != d.RecordBytes {
		return fmt.Errorf("h5lite: short read of record %d: %d of %d bytes", idx, n, d.RecordBytes)
	}
	return nil
}

// FlushMetadata emits dataset ds's metadata. In immediate mode the
// metadata-writing rank issues MetaOps small serialized writes; in
// aggregated mode the bytes are buffered for Close. Non-metadata-
// writer ranks return immediately.
func (f *File) FlushMetadata(p *sim.Proc, ds int) error {
	if !f.metaWriter {
		return nil
	}
	d, opts := f.l.Dataset(ds), &f.l.opts
	if opts.AggregateMetadata {
		f.pendingMeta += int64(d.MetaOps) * opts.MetaOpBytes
		return nil
	}
	for i := 0; i < d.MetaOps; i++ {
		if err := f.metaWrite(p, f.metaCursor[ds], opts.MetaOpBytes); err != nil {
			return err
		}
		f.metaCursor[ds] += opts.MetaOpBytes
	}
	return nil
}

func (f *File) metaWrite(p *sim.Proc, off, n int64) error {
	_, err := f.io.Pwrite(p, f.fd, off, n)
	return err
}

// Close flushes aggregated metadata (as large aligned writes at the
// end of the file) and closes the descriptor.
func (f *File) Close(p *sim.Proc) error {
	if f.closed {
		return errors.New("h5lite: double close")
	}
	f.closed = true
	if f.pendingMeta > 0 {
		const chunk = 1e6 // 1 MB aggregated metadata writes
		align := f.l.opts.Alignment
		off := roundUp(f.l.end, align)
		remaining := f.pendingMeta
		for remaining > 0 {
			n := int64(chunk)
			if remaining < n {
				n = roundUp(remaining, align) // pad the final chunk too
			}
			if err := f.metaWrite(p, off, n); err != nil {
				return err
			}
			off += n
			remaining -= int64(chunk)
		}
	}
	return f.io.Close(p, f.fd)
}
