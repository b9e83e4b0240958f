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
// descriptor, its I/O surface and its role; only the metadata writer
// also keeps flush state.
//
// Every File call takes a posixio.Done completion and returns at once,
// like the IO calls beneath it; the completion runs exactly once, with
// the error if the call failed.
package h5lite

import (
	"errors"
	"fmt"

	"ensembleio/internal/posixio"
)

// IO is the POSIX surface h5lite drives; *ipmio.Tracer and
// *posixio.Task both satisfy it.
type IO interface {
	Open(path string, flags int, k posixio.Done) int
	Close(fd int, k posixio.Done)
	Pwrite(fd int, offset, n int64, k posixio.Done)
	Pread(fd int, offset, n int64, k posixio.Done)
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
	c          *fileCall // see fileCall; nil until a call needs it
}

// fileCall is the slot of a File's outstanding multi-step call — one
// whose completion has work left to do — with the metadata writer's
// flush state. Only ranks that make such calls allocate one: the
// metadata writer at Create, any rank at its first ReadRecord.
type fileCall struct {
	f     *File
	state callState
	k     posixio.Done // the caller's completion
	step  posixio.Done // c.resume: what the IO completes into

	ds, i          int   // FlushMetadata: dataset and ops issued
	off, remaining int64 // Close: next aggregated chunk and bytes left
	want           int64 // ReadRecord: the record size

	// The metadata writer's flush state: bytes awaiting Close in
	// aggregated mode, or each dataset's next metadata offset in
	// immediate mode.
	pendingMeta int64
	metaCursor  []int64
}

// callState is what a fileCall's pending IO completes into.
type callState uint8

const (
	callCreate callState = iota
	callLast             // the call's last IO: complete with its result
	callFlush
	callClose
	callRead
)

// NewFile returns a rank's handle on a file with layout l, not yet open.
// The metadata writer (HDF5 funnels metadata through one writer; GCRM
// used task 0) writes the superblock at Create and every dataset's
// metadata.
func NewFile(io IO, l *Layout, metadataWriter bool) *File {
	f := &File{io: io, l: l, metaWriter: metadataWriter}
	if metadataWriter {
		c := f.call()
		if !l.opts.AggregateMetadata {
			c.metaCursor = make([]int64, len(l.datasets))
			for i := range l.datasets {
				c.metaCursor[i] = l.datasets[i].MetaBase
			}
		}
	}
	return f
}

// call returns the file's call slot, allocating it on first use.
func (f *File) call() *fileCall {
	if f.c == nil {
		f.c = &fileCall{f: f}
		f.c.step = f.c.resume
	}
	return f.c
}

// begin starts a multi-step call that completes with k and returns the
// completion for its first IO.
func (c *fileCall) begin(s callState, k posixio.Done) posixio.Done {
	c.state, c.k = s, k
	return c.step
}

func (c *fileCall) finish(n int64, err error) {
	k := c.k
	c.k = nil
	k(n, err)
}

// resume continues the outstanding call once its IO completes.
func (c *fileCall) resume(n int64, err error) {
	f := c.f
	if err != nil {
		c.finish(n, err)
		return
	}
	switch c.state {
	case callCreate:
		f.fd = int(n)
		c.state = callLast
		f.io.Pwrite(f.fd, 0, f.l.opts.SuperblockBytes, c.step)
	case callLast:
		c.finish(n, nil)
	case callFlush:
		c.metaCursor[c.ds] += f.l.opts.MetaOpBytes
		c.flushNext()
	case callClose:
		c.closeNext()
	case callRead:
		if n != c.want {
			err = fmt.Errorf("h5lite: short read: %d of %d bytes", n, c.want)
		}
		c.finish(n, err)
	}
}

// Create creates (or, for non-creating ranks, opens) the file at path.
// The metadata writer then writes the superblock.
func (f *File) Create(path string, k posixio.Done) {
	const flags = posixio.OCreat | posixio.ORdwr
	if f.metaWriter {
		f.fd = f.io.Open(path, flags, f.c.begin(callCreate, k))
		return
	}
	f.fd = f.io.Open(path, flags, k)
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
func (f *File) WriteRecord(ds, idx int, k posixio.Done) {
	d, err := f.record(ds, idx)
	if err != nil {
		k(0, err)
		return
	}
	n := d.RecordBytes
	if f.l.opts.Alignment > 0 {
		n = d.Stride
	}
	f.io.Pwrite(f.fd, d.RecordOffset(idx), n, k)
}

// ReadRecord reads record idx of dataset ds back (the
// analysis/visualization path of the GCRM pipeline). It fails for
// out-of-range indices and short reads.
func (f *File) ReadRecord(ds, idx int, k posixio.Done) {
	d, err := f.record(ds, idx)
	if err != nil {
		k(0, err)
		return
	}
	c := f.call()
	c.want = d.RecordBytes
	f.io.Pread(f.fd, d.RecordOffset(idx), d.RecordBytes, c.begin(callRead, k))
}

// FlushMetadata emits dataset ds's metadata. In immediate mode the
// metadata-writing rank issues MetaOps small serialized writes; in
// aggregated mode the bytes are buffered for Close. Non-metadata-
// writer ranks complete at once.
func (f *File) FlushMetadata(ds int, k posixio.Done) {
	if !f.metaWriter {
		k(0, nil)
		return
	}
	c := f.c
	d, opts := f.l.Dataset(ds), &f.l.opts
	if opts.AggregateMetadata {
		c.pendingMeta += int64(d.MetaOps) * opts.MetaOpBytes
		k(0, nil)
		return
	}
	c.begin(callFlush, k)
	c.ds, c.i = ds, 0
	c.flushNext()
}

// flushNext issues the flush's next metadata write, or completes it.
func (c *fileCall) flushNext() {
	f := c.f
	if c.i == f.l.Dataset(c.ds).MetaOps {
		c.finish(0, nil)
		return
	}
	c.i++
	f.io.Pwrite(f.fd, c.metaCursor[c.ds], f.l.opts.MetaOpBytes, c.step)
}

// Close flushes aggregated metadata (as large aligned writes at the
// end of the file) and closes the descriptor.
func (f *File) Close(k posixio.Done) {
	if f.closed {
		k(0, errors.New("h5lite: double close"))
		return
	}
	f.closed = true
	if c := f.c; c != nil && c.pendingMeta > 0 {
		c.begin(callClose, k)
		c.off = roundUp(f.l.end, f.l.opts.Alignment)
		c.remaining = c.pendingMeta
		c.closeNext()
		return
	}
	f.io.Close(f.fd, k)
}

// closeNext issues the next 1 MB aggregated metadata write, padding
// the final chunk, then closes the descriptor.
func (c *fileCall) closeNext() {
	f := c.f
	if c.remaining <= 0 {
		k := c.k
		c.k = nil
		f.io.Close(f.fd, k)
		return
	}
	const chunk = 1e6 // 1 MB aggregated metadata writes
	n := int64(chunk)
	if c.remaining < n {
		n = roundUp(c.remaining, f.l.opts.Alignment) // pad the final chunk too
	}
	off := c.off
	c.off += n
	c.remaining -= int64(chunk)
	f.io.Pwrite(f.fd, off, n, c.step)
}
