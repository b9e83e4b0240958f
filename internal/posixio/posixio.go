// Package posixio provides the simulated POSIX I/O layer: a file
// descriptor table and open/read/write/seek/fsync/close calls executed
// against the lustre client of the calling task's node. This is the
// call surface that the IPM-I/O tracing layer (package ipmio)
// intercepts — the stand-in for wrapping libc with the GNU linker's
// -wrap mechanism on a real system.
package posixio

import (
	"errors"
	"fmt"

	"ensembleio/internal/cluster"
	"ensembleio/internal/lustre"
	"ensembleio/internal/sim"
)

// Open flags, mirroring the POSIX constants the workloads need.
const (
	ORdonly = 0x0
	OWronly = 0x1
	ORdwr   = 0x2
	OCreat  = 0x40
	OTrunc  = 0x200
)

// Seek whence values.
const (
	SeekSet = 0
	SeekCur = 1
	SeekEnd = 2
)

// Errors returned by the layer.
var (
	ErrBadFD     = errors.New("posixio: bad file descriptor")
	ErrNotExist  = errors.New("posixio: no such file")
	ErrReadOnly  = errors.New("posixio: fd not open for writing")
	ErrWriteOnly = errors.New("posixio: fd not open for reading")
)

// System is one process-wide view of the mounted file system.
type System struct {
	FS *lustre.FS
}

// NewSystem mounts the POSIX layer over a lustre file system.
func NewSystem(fs *lustre.FS) *System { return &System{FS: fs} }

// Done is an I/O call's completion. It receives what the call
// returns — the new descriptor for Open, the byte count for a read or
// write, 0 otherwise — or the call's error. A call runs its Done
// exactly once: from a later event if the call waited, or before the
// call returns if there was nothing to wait for (an error, a read at
// end of file).
type Done func(n int64, err error)

// Task is the per-rank I/O context: its node's client plus an fd
// table, bound to the rank's simulated task. A task has at most one
// call outstanding.
type Task struct {
	Rank int
	sys  *System
	node *cluster.Node
	cl   *lustre.Client
	// fds is the dense descriptor table: descriptor num lives at
	// fds[num-FirstFD] and is nil once closed. Numbers are per-task,
	// issued in order and never reused, so the table only grows.
	fds []*fd

	// The outstanding call: its file-system request slot, its result
	// and completion, and the pre-bound function the file system
	// completes it through.
	req    lustre.Req
	n      int64
	k      Done
	doneFn func()
}

// FirstFD is the first descriptor number Open issues; 0-2 are
// reserved, as in POSIX.
const FirstFD = 3

type fd struct {
	file   *lustre.File
	offset int64
	flags  int
	read   *lustre.ReadState
}

// InitTask makes t the I/O context of a rank placed on the given node
// and running as simulated task proc. A job keeps its ranks' contexts
// in one slice and initializes each in place.
func (s *System) InitTask(t *Task, rank int, node *cluster.Node, proc *sim.Task) {
	*t = Task{
		Rank: rank,
		sys:  s,
		node: node,
		cl:   s.FS.ClientFor(node),
	}
	t.req.T = proc
	t.doneFn = t.done
}

// Node returns the task's compute node.
func (t *Task) Node() *cluster.Node { return t.node }

// Now returns the current virtual time.
func (t *Task) Now() sim.Time { return t.req.T.Now() }

// call records the outstanding call's result and completion and
// returns the function that completes it.
func (t *Task) call(n int64, k Done) func() {
	t.n, t.k = n, k
	return t.doneFn
}

func (t *Task) done() {
	k := t.k
	t.k = nil
	k(t.n, nil)
}

// Open opens (and with OCreat, creates) path, charging one metadata
// operation. It returns the new descriptor number, which the call also
// completes with, or -1 if the call fails.
func (t *Task) Open(path string, flags int, k Done) int {
	f := t.sys.FS.Lookup(path)
	if f == nil {
		if flags&OCreat == 0 {
			k(-1, fmt.Errorf("%w: %s", ErrNotExist, path))
			return -1
		}
		f = t.sys.FS.Create(path)
	} else if flags&OTrunc != 0 {
		f.Size = 0
	}
	t.fds = append(t.fds, &fd{file: f, flags: flags, read: lustre.NewReadState()})
	num := FirstFD + len(t.fds) - 1
	t.sys.FS.MDSOp(&t.req, 0, t.call(int64(num), k))
	return num
}

// Close releases the descriptor, charging one metadata operation.
func (t *Task) Close(num int, k Done) {
	if t.lookup(num) == nil {
		k(0, ErrBadFD)
		return
	}
	t.fds[num-FirstFD] = nil
	t.sys.FS.MDSOp(&t.req, 0, t.call(0, k))
}

// Write writes n bytes at the current offset and advances it. Writes
// at or below the profile's SmallIOBytes threshold travel the
// serialized metadata/small-I/O path, as sub-page shared-file writes
// do on the real system.
func (t *Task) Write(num int, n int64, k Done) {
	d, err := t.writable(num)
	if err != nil {
		k(0, err)
		return
	}
	offset := d.offset
	d.offset += n
	t.writeAt(d, offset, n, k)
}

// Pwrite writes n bytes at an explicit offset without moving the fd
// offset.
func (t *Task) Pwrite(num int, offset, n int64, k Done) {
	d, err := t.writable(num)
	if err != nil {
		k(0, err)
		return
	}
	t.writeAt(d, offset, n, k)
}

func (t *Task) writeAt(d *fd, offset, n int64, k Done) {
	if n <= t.sys.FS.Cl.Prof.SmallIOBytes {
		t.sys.FS.SmallWrite(&t.req, d.file, offset, n, t.call(n, k))
		return
	}
	t.cl.Write(&t.req, d.file, offset, n, t.call(n, k))
}

// Read reads up to n bytes at the current offset, completing with the
// number actually read (short at EOF), and advances the offset.
func (t *Task) Read(num int, n int64, k Done) {
	d, err := t.readable(num)
	if err != nil {
		k(0, err)
		return
	}
	offset := d.offset
	d.offset += t.clamp(d, offset, n)
	t.readAt(d, offset, n, k)
}

// Pread reads at an explicit offset without moving the fd offset.
func (t *Task) Pread(num int, offset, n int64, k Done) {
	d, err := t.readable(num)
	if err != nil {
		k(0, err)
		return
	}
	t.readAt(d, offset, n, k)
}

// clamp is how many of n bytes at offset lie before end of file.
func (t *Task) clamp(d *fd, offset, n int64) int64 {
	if offset >= d.file.Size {
		return 0
	}
	return max(min(n, d.file.Size-offset), 0)
}

func (t *Task) readAt(d *fd, offset, n int64, k Done) {
	n = t.clamp(d, offset, n)
	if n == 0 {
		k(0, nil)
		return
	}
	t.cl.Read(&t.req, d.file, d.read, offset, n, t.call(n, k))
}

// Seek repositions the descriptor offset and returns the new offset.
// Seeking is a client-local operation and costs no simulated time.
func (t *Task) Seek(num int, offset int64, whence int) (int64, error) {
	d := t.lookup(num)
	if d == nil {
		return 0, ErrBadFD
	}
	switch whence {
	case SeekSet:
		d.offset = offset
	case SeekCur:
		d.offset += offset
	case SeekEnd:
		d.offset = d.file.Size + offset
	default:
		return 0, fmt.Errorf("posixio: bad whence %d", whence)
	}
	if d.offset < 0 {
		d.offset = 0
	}
	return d.offset, nil
}

// Fsync flushes the node's write-back cache and outstanding writes.
func (t *Task) Fsync(num int, k Done) {
	if t.lookup(num) == nil {
		k(0, ErrBadFD)
		return
	}
	t.cl.Fsync(&t.req, t.call(0, k))
}

// Offset returns the descriptor's current offset.
func (t *Task) Offset(num int) (int64, bool) {
	d := t.lookup(num)
	if d == nil {
		return 0, false
	}
	return d.offset, true
}

// lookup returns the open descriptor num, or nil if num was never
// issued or is closed.
func (t *Task) lookup(num int) *fd {
	if i := num - FirstFD; i >= 0 && i < len(t.fds) {
		return t.fds[i]
	}
	return nil
}

func (t *Task) writable(num int) (*fd, error) {
	d := t.lookup(num)
	if d == nil {
		return nil, ErrBadFD
	}
	if d.flags&(OWronly|ORdwr) == 0 {
		return nil, ErrReadOnly
	}
	return d, nil
}

func (t *Task) readable(num int) (*fd, error) {
	d := t.lookup(num)
	if d == nil {
		return nil, ErrBadFD
	}
	if d.flags&OWronly != 0 && d.flags&ORdwr == 0 {
		return nil, ErrWriteOnly
	}
	return d, nil
}
