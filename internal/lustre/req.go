package lustre

import "ensembleio/internal/sim"

// Req is one caller's slot for its outstanding file-system call: a
// rank's POSIX context or a background tenant owns one. A caller has
// at most one call in flight, so one Req holds every call's state
// across the call's parks, and no call allocates. The zero value with
// T set is ready to use; a Req must not be shared between tasks.
//
// Every call takes a completion k and returns at once. k runs exactly
// once, when the call is done: from a later event if the call parked,
// or before the call returns if it had nothing to wait for.
type Req struct {
	// T is the calling task: the one that parks while a call waits.
	T *sim.Task

	state reqState
	// aligned: a write's extent is stripe-aligned. extend: a metadata
	// op is a small write, which grows f.
	aligned, extend bool
	k               func() // the caller's completion
	step            func() // q.resume, bound on first use

	fs *FS
	c  *Client
	f  *File

	// The call's extent: a metadata op's payload is its length.
	offset, length int64

	// Write: the call's size, and the part still to move synchronously
	// once the page-cache absorb is done. Metadata path: the stall the
	// op holds its slot through.
	sizeMB, syncMB float64
	extraSlow      sim.Duration

	rd *readCall // made on the caller's first Read
}

// readCall is a Read's progress: chunks served, the per-chunk demand
// and cap, and whether the strided defect has struck.
type readCall struct {
	rs                     *ReadState
	start                  sim.Time
	chunk, chunks          int
	per, normalCap, demand float64
	pathological           bool
}

// reqState is what the pending park of a Req resumes into.
type reqState uint8

const (
	reqIdle reqState = iota
	reqWriteAbsorbed
	reqWriteDone
	reqReadChunk
	reqFsyncPoll
	reqMDSAcquire
	reqMDSDone
)

// begin starts a call that completes with k.
func (q *Req) begin(k func()) {
	if q.step == nil {
		q.step = q.resume
	}
	q.k = k
}

// park records what the pending park resumes into and returns the
// continuation to park with.
func (q *Req) park(s reqState) func() {
	q.state = s
	return q.step
}

// done completes the outstanding call.
func (q *Req) done() {
	k := q.k
	q.state, q.k, q.f = reqIdle, nil, nil
	k()
}

// resume continues the outstanding call after a park.
func (q *Req) resume() {
	switch q.state {
	case reqWriteAbsorbed:
		q.c.absorbing--
		q.c.writeSync(q)
	case reqWriteDone:
		q.f.extend(q.offset + q.length)
		q.done()
	case reqReadChunk:
		q.c.readChunk(q)
	case reqFsyncPoll:
		q.c.fsyncPoll(q)
	case reqMDSAcquire:
		q.fs.mdsAcquire(q)
	case reqMDSDone:
		q.fs.mdsDone(q)
	default:
		panic("lustre: resume of an idle request")
	}
}
