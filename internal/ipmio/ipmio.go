// Package ipmio is the simulated IPM-I/O layer: it intercepts every
// POSIX-level I/O call of a task (the stand-in for the GNU linker
// -wrap interposition on libc), producing timestamped trace events —
// the call, its arguments, and its duration — with an fd-to-file
// lookup table, exactly as described in §II-B of the paper.
//
// Two collection modes are supported. Trace mode retains every event.
// Profile mode folds events into online per-operation histograms
// without retaining the trace — the paper's "future work" transition
// from an I/O tracing paradigm to an I/O profiling paradigm, which
// scales the way program-counter profiling does. Both can be active
// at once, which is how the test suite proves they agree.
//
// The simulation runtime is lock-step (one process executes at a
// time), so a Collector needs no internal locking.
package ipmio

import (
	"fmt"

	"ensembleio/internal/ensemble"
	"ensembleio/internal/posixio"
	"ensembleio/internal/sim"
)

// Op identifies the intercepted call.
type Op uint8

// Intercepted operations.
const (
	OpOpen Op = iota
	OpClose
	OpRead
	OpWrite
	OpSeek
	OpFsync
	opCount
)

var opNames = [...]string{"open", "close", "read", "write", "seek", "fsync"}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// ParseOp is the inverse of Op.String.
func ParseOp(s string) (Op, bool) {
	for i, n := range opNames {
		if n == s {
			return Op(i), true
		}
	}
	return 0, false
}

// Event is one trace record.
type Event struct {
	Rank   int
	Op     Op
	FD     int
	File   string
	Offset int64 // offset at which the op began
	Bytes  int64 // bytes moved (0 for open/close/seek/fsync)
	Start  sim.Time
	Dur    sim.Duration
}

// RateMBps returns the event's observed data rate, or 0 for unsized or
// instantaneous events.
func (e Event) RateMBps() float64 {
	if e.Bytes == 0 || e.Dur <= 0 {
		return 0
	}
	return float64(e.Bytes) / 1e6 / float64(e.Dur)
}

// Mode selects what a Collector retains.
type Mode uint8

// Collection modes.
const (
	TraceMode   Mode = 1 << iota // retain every event
	ProfileMode                  // fold events into online histograms
	PatternMode                  // classify access patterns online
)

// PhaseMark labels a point in time (typically a barrier) so analysis
// can slice the run into synchronous phases.
type PhaseMark struct {
	Name string
	T    sim.Time
}

// Collector aggregates events for a whole job (all ranks).
type Collector struct {
	mode   Mode
	Events []Event
	Marks  []PhaseMark

	durHist  [opCount]*ensemble.Histogram // seconds
	rateHist [opCount]*ensemble.Histogram // seconds per MB (sized ops)

	patterns *PatternDetector // PatternMode only
}

// NewCollector returns a collector in the given mode(s).
func NewCollector(mode Mode) *Collector {
	c := &Collector{mode: mode}
	if mode&ProfileMode != 0 {
		for i := range c.durHist {
			c.durHist[i] = ensemble.NewHistogram(ensemble.LogBins(1e-5, 1e4, 10))
			c.rateHist[i] = ensemble.NewHistogram(ensemble.LogBins(1e-6, 1e4, 10))
		}
	}
	if mode&PatternMode != 0 {
		c.patterns = NewPatternDetector()
	}
	return c
}

// Reserve pre-sizes the trace-mode event buffer for n further events.
// Workloads know their op count up front and call this once per run so
// the per-event Record path never grows the slice. n is a capacity
// floor, not a limit; recording past it just falls back to append
// growth.
func (c *Collector) Reserve(n int) {
	if c.mode&TraceMode == 0 || n <= 0 {
		return
	}
	if need := len(c.Events) + n; need > cap(c.Events) {
		ev := make([]Event, len(c.Events), need)
		copy(ev, c.Events)
		c.Events = ev
	}
}

// Record folds in one event.
func (c *Collector) Record(ev Event) {
	if c.mode&TraceMode != 0 {
		c.Events = append(c.Events, ev)
	}
	if c.mode&ProfileMode != 0 {
		c.durHist[ev.Op].Add(float64(ev.Dur))
		if ev.Bytes > 0 && ev.Dur > 0 {
			c.rateHist[ev.Op].Add(float64(ev.Dur) / (float64(ev.Bytes) / 1e6))
		}
	}
	if c.patterns != nil {
		c.patterns.Observe(ev)
	}
}

// Patterns returns the online pattern detector (PatternMode only; nil
// otherwise).
func (c *Collector) Patterns() *PatternDetector { return c.patterns }

// Mark records a phase boundary.
func (c *Collector) Mark(name string, t sim.Time) {
	c.Marks = append(c.Marks, PhaseMark{Name: name, T: t})
}

// DurProfile returns the online duration histogram for op (profile
// mode only; nil otherwise).
func (c *Collector) DurProfile(op Op) *ensemble.Histogram {
	if c.mode&ProfileMode == 0 {
		return nil
	}
	return c.durHist[op]
}

// RateProfile returns the online sec-per-MB histogram for op (profile
// mode only; nil otherwise).
func (c *Collector) RateProfile(op Op) *ensemble.Histogram {
	if c.mode&ProfileMode == 0 {
		return nil
	}
	return c.rateHist[op]
}

// OpEvents returns the traced events of one op type.
func (c *Collector) OpEvents(op Op) []Event {
	var out []Event
	for _, ev := range c.Events {
		if ev.Op == op {
			out = append(out, ev)
		}
	}
	return out
}

// Tracer wraps one rank's posixio.Task, recording an event per call.
// Like the task it wraps, it has at most one call outstanding; the
// call's arguments wait in the tracer until the call completes.
type Tracer struct {
	Task *posixio.Task
	C    *Collector

	op     Op
	fd     int
	path   string
	offset int64
	start  sim.Time
	k      posixio.Done
	doneFn posixio.Done
}

// NewTracer wraps task, reporting to c.
func NewTracer(task *posixio.Task, c *Collector) *Tracer {
	tr := &Tracer{Task: task, C: c}
	tr.doneFn = tr.done
	return tr
}

// begin records the arguments of a call issued now on fd, which names
// path, and returns the completion to issue it with.
func (tr *Tracer) begin(op Op, fd int, path string, offset int64, k posixio.Done) posixio.Done {
	tr.op, tr.fd, tr.path, tr.offset, tr.k = op, fd, path, offset, k
	tr.start = tr.Task.Now()
	return tr.doneFn
}

// call begins a call on an open descriptor.
func (tr *Tracer) call(op Op, fd int, offset int64, k posixio.Done) posixio.Done {
	path, _ := tr.Task.Path(fd)
	return tr.begin(op, fd, path, offset, k)
}

// done records the completed call, unless it failed, and hands its
// result on.
func (tr *Tracer) done(n int64, err error) {
	k := tr.k
	tr.k = nil
	if err == nil {
		ev := Event{Rank: tr.Task.Rank, Op: tr.op, FD: tr.fd, File: tr.path, Offset: tr.offset, Start: tr.start, Dur: tr.Task.Now() - tr.start}
		switch tr.op {
		case OpOpen:
			ev.FD = int(n)
		case OpRead, OpWrite:
			ev.Bytes = n
		}
		tr.C.Record(ev)
	}
	k(n, err)
}

// Open intercepts posixio.Task.Open.
func (tr *Tracer) Open(path string, flags int, k posixio.Done) int {
	return tr.Task.Open(path, flags, tr.begin(OpOpen, 0, path, 0, k))
}

// Close intercepts posixio.Task.Close.
func (tr *Tracer) Close(fd int, k posixio.Done) {
	tr.Task.Close(fd, tr.call(OpClose, fd, 0, k))
}

// Read intercepts posixio.Task.Read.
func (tr *Tracer) Read(fd int, n int64, k posixio.Done) {
	off, _ := tr.Task.Offset(fd)
	tr.Task.Read(fd, n, tr.call(OpRead, fd, off, k))
}

// Write intercepts posixio.Task.Write.
func (tr *Tracer) Write(fd int, n int64, k posixio.Done) {
	off, _ := tr.Task.Offset(fd)
	tr.Task.Write(fd, n, tr.call(OpWrite, fd, off, k))
}

// Pread intercepts posixio.Task.Pread.
func (tr *Tracer) Pread(fd int, offset, n int64, k posixio.Done) {
	tr.Task.Pread(fd, offset, n, tr.call(OpRead, fd, offset, k))
}

// Pwrite intercepts posixio.Task.Pwrite.
func (tr *Tracer) Pwrite(fd int, offset, n int64, k posixio.Done) {
	tr.Task.Pwrite(fd, offset, n, tr.call(OpWrite, fd, offset, k))
}

// Seek intercepts posixio.Task.Seek (zero-duration, still traced: the
// access pattern matters to diagnosis).
func (tr *Tracer) Seek(fd int, offset int64, whence int) (int64, error) {
	start := tr.Task.Now()
	pos, err := tr.Task.Seek(fd, offset, whence)
	if err == nil {
		path, _ := tr.Task.Path(fd)
		tr.C.Record(Event{Rank: tr.Task.Rank, Op: OpSeek, FD: fd, File: path, Offset: pos, Start: start})
	}
	return pos, err
}

// Fsync intercepts posixio.Task.Fsync.
func (tr *Tracer) Fsync(fd int, k posixio.Done) {
	off, _ := tr.Task.Offset(fd)
	tr.Task.Fsync(fd, tr.call(OpFsync, fd, off, k))
}
