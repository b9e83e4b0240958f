package lustre

import (
	"math"

	"ensembleio/internal/flownet"
)

// ReadState is the per-open-file read-ahead state machine kept by the
// client. It mirrors the Lustre behaviour isolated in §IV-C of the
// paper:
//
//   - Consecutive reads separated by a constant stride are recognized
//     as a strided pattern on the stride's third appearance; from the
//     fourth read onward the client applies an enlarged strided
//     read-ahead window.
//   - Defect: while sibling tasks' writes are in flight on the node,
//     dirty pages exhaust client memory; the enlarged-window
//     bookkeeping then miscomputes and the read degenerates to
//     page-sized (4 kB) RPCs. The degradation strikes mid-read, as
//     soon as interleaved writing begins, and is sticky for the rest
//     of the read; it worsens with every strided read (the window
//     state compounds), producing the progressive deterioration of
//     Figure 5(a). Reads that complete before any sibling write
//     starts stay fast — the fast initial segments of the Fig. 5(a)
//     CDFs.
//   - The patch (Profile.PatchStridedReadahead) removes strided
//     detection entirely, exactly as the production fix did.
type ReadState struct {
	started      bool
	lastOffset   int64
	lastEnd      int64
	lastStride   int64
	strideRepeat int
	severity     float64 // pathology multiplier; grows per strided read
}

// NewReadState returns the state for a freshly opened file.
func NewReadState() *ReadState { return &ReadState{severity: 1} }

// StridedActive reports whether the enlarged strided window is in
// effect (the stride has been seen at least three times).
func (rs *ReadState) StridedActive() bool { return rs.strideRepeat >= 3 }

// observe updates pattern detection for a read at [offset, offset+length).
func (rs *ReadState) observe(offset, length int64) {
	if rs.started && offset != rs.lastEnd {
		stride := offset - rs.lastOffset
		if stride != 0 && stride == rs.lastStride {
			rs.strideRepeat++
		} else {
			rs.lastStride = stride
			rs.strideRepeat = 1
		}
	}
	rs.started = true
	rs.lastOffset = offset
	rs.lastEnd = offset + length
}

// Read performs one POSIX-level read for the caller of q and runs k
// when it is done. The rs state must belong to this (client, open
// file) pair.
//
// The read is served as ReadChunks successive segments so the strided
// defect can strike mid-read: before each segment the client checks
// whether writes are in flight on the node; if so — and the strided
// window is armed and the patch is absent — this and every later
// segment of the call degenerate to page-sized reads.
func (c *Client) Read(q *Req, f *File, rs *ReadState, offset, length int64, k func()) {
	q.begin(k)
	prof := c.fs.Cl.Prof
	rs.observe(offset, length)
	start := q.T.Now()

	chunks := prof.ReadChunks
	if chunks <= 0 {
		chunks = 1
	}
	demand := mb(length) * c.fs.Cl.ServiceNoise()
	luck := c.fs.Cl.StreamLuck()
	if !math.IsInf(luck, 1) {
		c.fs.stats.LuckCapped++
	}
	c.fs.stats.ReadCalls++
	c.fs.stats.ReadMB += demand
	if tu := c.fs.tenantUsageFor(c.node.ID); tu != nil {
		tu.ReadCalls++
		tu.ReadMB += demand
	}

	q.c, q.f, q.offset, q.length = c, f, offset, length
	if q.rd == nil {
		q.rd = &readCall{}
	}
	*q.rd = readCall{
		rs:        rs,
		start:     start,
		chunks:    chunks,
		per:       demand / float64(chunks),
		normalCap: minf(prof.ReadCapMBps, luck),
		demand:    demand,
	}
	c.readChunk(q)
}

// readChunk serves the next segment of q's read, or finishes the call
// once every segment has moved.
func (c *Client) readChunk(q *Req) {
	prof := c.fs.Cl.Prof
	rd := q.rd
	rs := rd.rs
	if rd.chunk == rd.chunks {
		if rd.pathological {
			if grow := prof.PathologySeverityGrow; grow > 1 {
				rs.severity *= grow
			}
		}
		c.fs.noteOSTService(c.node.ID, q.f, q.offset, q.length, rd.demand, q.T.Now()-rd.start)
		rd.rs = nil
		q.done()
		return
	}
	rd.chunk++
	capMBps := rd.normalCap
	if !rd.pathological &&
		!prof.PatchStridedReadahead &&
		rs.StridedActive() &&
		c.WriteBusy() {
		rd.pathological = true
		c.fs.stats.PathologicalReads++
		c.fs.telPathology.Inc()
	}
	if rd.pathological {
		capMBps = prof.PathologyMBps / rs.severity
		if capMBps < prof.PathologyFloorMBps {
			capMBps = prof.PathologyFloorMBps
		}
	}
	// Degraded-OST ceilings are evaluated per chunk, so a stall
	// window opening mid-call slows the remaining segments only —
	// the within-call onset behind the flaky-OST signature.
	capMBps = minf(capMBps, c.fs.ostCapMBps(q.f, q.offset, q.length, q.T.Now()))
	c.node.Port.Transfer(q.T, rd.per, flownet.StreamOpts{RateCap: capMBps}, q.park(reqReadChunk))
}
