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

// Task is the per-rank I/O context: its node's client plus an fd
// table. All calls must be made from the task's simulated process.
type Task struct {
	Rank int
	sys  *System
	node *cluster.Node
	cl   *lustre.Client
	// fds is the dense descriptor table: descriptor num lives at
	// fds[num-firstFD] and is nil once closed. Numbers are per-task,
	// issued in order and never reused, so the table only grows.
	fds []*fd
}

// firstFD is the first descriptor number Open issues; 0-2 are
// reserved, as in POSIX.
const firstFD = 3

type fd struct {
	file   *lustre.File
	path   string
	offset int64
	flags  int
	read   *lustre.ReadState
}

// NewTask creates the I/O context for a rank placed on the given node.
func (s *System) NewTask(rank int, node *cluster.Node) *Task {
	return &Task{
		Rank: rank,
		sys:  s,
		node: node,
		cl:   s.FS.ClientFor(node),
	}
}

// Node returns the task's compute node.
func (t *Task) Node() *cluster.Node { return t.node }

// Open opens (and with OCreat, creates) path, charging one metadata
// operation. It returns the new descriptor number.
func (t *Task) Open(p *sim.Proc, path string, flags int) (int, error) {
	f := t.sys.FS.Lookup(path)
	if f == nil {
		if flags&OCreat == 0 {
			return -1, fmt.Errorf("%w: %s", ErrNotExist, path)
		}
		f = t.sys.FS.Create(path)
	} else if flags&OTrunc != 0 {
		f.Size = 0
	}
	t.sys.FS.MDSOp(p, 0)
	t.fds = append(t.fds, &fd{file: f, path: path, flags: flags, read: lustre.NewReadState()})
	return firstFD + len(t.fds) - 1, nil
}

// Close releases the descriptor, charging one metadata operation.
func (t *Task) Close(p *sim.Proc, num int) error {
	if t.lookup(num) == nil {
		return ErrBadFD
	}
	t.fds[num-firstFD] = nil
	t.sys.FS.MDSOp(p, 0)
	return nil
}

// Write writes n bytes at the current offset and advances it. Writes
// at or below the profile's SmallIOBytes threshold travel the
// serialized metadata/small-I/O path, as sub-page shared-file writes
// do on the real system.
func (t *Task) Write(p *sim.Proc, num int, n int64) (int64, error) {
	d, err := t.writable(num)
	if err != nil {
		return 0, err
	}
	t.writeAt(p, d, d.offset, n)
	d.offset += n
	return n, nil
}

// Pwrite writes n bytes at an explicit offset without moving the fd
// offset.
func (t *Task) Pwrite(p *sim.Proc, num int, offset, n int64) (int64, error) {
	d, err := t.writable(num)
	if err != nil {
		return 0, err
	}
	t.writeAt(p, d, offset, n)
	return n, nil
}

func (t *Task) writeAt(p *sim.Proc, d *fd, offset, n int64) {
	if n <= t.sys.FS.Cl.Prof.SmallIOBytes {
		t.sys.FS.SmallWrite(p, d.file, offset, n)
		return
	}
	t.cl.Write(p, d.file, offset, n)
}

// Read reads up to n bytes at the current offset, returning the number
// actually read (short at EOF) and advancing the offset.
func (t *Task) Read(p *sim.Proc, num int, n int64) (int64, error) {
	d, err := t.readable(num)
	if err != nil {
		return 0, err
	}
	got := t.readAt(p, d, d.offset, n)
	d.offset += got
	return got, nil
}

// Pread reads at an explicit offset without moving the fd offset.
func (t *Task) Pread(p *sim.Proc, num int, offset, n int64) (int64, error) {
	d, err := t.readable(num)
	if err != nil {
		return 0, err
	}
	return t.readAt(p, d, offset, n), nil
}

func (t *Task) readAt(p *sim.Proc, d *fd, offset, n int64) int64 {
	if offset >= d.file.Size {
		return 0
	}
	if offset+n > d.file.Size {
		n = d.file.Size - offset
	}
	if n <= 0 {
		return 0
	}
	t.cl.Read(p, d.file, d.read, offset, n)
	return n
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
func (t *Task) Fsync(p *sim.Proc, num int) error {
	if t.lookup(num) == nil {
		return ErrBadFD
	}
	t.cl.Fsync(p)
	return nil
}

// Path returns the path an open descriptor refers to — the fd-to-file
// lookup table IPM-I/O uses to associate events with files.
func (t *Task) Path(num int) (string, bool) {
	d := t.lookup(num)
	if d == nil {
		return "", false
	}
	return d.path, true
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
	if i := num - firstFD; i >= 0 && i < len(t.fds) {
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
