package lustre

import (
	"math"

	"ensembleio/internal/flownet"
	"ensembleio/internal/sim"
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

// Read performs one POSIX-level read and returns the call duration.
// The rs state must belong to this (client, open file) pair.
//
// The read is served as ReadChunks successive segments so the strided
// defect can strike mid-read: before each segment the client checks
// whether writes are in flight on the node; if so — and the strided
// window is armed and the patch is absent — this and every later
// segment of the call degenerate to page-sized reads.
func (c *Client) Read(p *sim.Proc, f *File, rs *ReadState, offset, length int64) sim.Duration {
	prof := c.fs.Cl.Prof
	rs.observe(offset, length)
	start := p.Now()

	chunks := prof.ReadChunks
	if chunks <= 0 {
		chunks = 1
	}
	demand := mb(length) * c.fs.Cl.ServiceNoise()
	per := demand / float64(chunks)
	luck := c.fs.Cl.StreamLuck()
	if !math.IsInf(luck, 1) {
		c.fs.stats.LuckCapped++
	}
	normalCap := minf(prof.ReadCapMBps, luck)
	c.fs.stats.ReadCalls++
	c.fs.stats.ReadMB += demand
	if tu := c.fs.tenantUsageFor(c.node.ID); tu != nil {
		tu.ReadCalls++
		tu.ReadMB += demand
	}

	pathological := false
	for i := 0; i < chunks; i++ {
		capMBps := normalCap
		if !pathological &&
			!prof.PatchStridedReadahead &&
			rs.StridedActive() &&
			c.WriteBusy() {
			pathological = true
			c.fs.stats.PathologicalReads++
			c.fs.telPathology.Inc()
		}
		if pathological {
			capMBps = prof.PathologyMBps / rs.severity
			if capMBps < prof.PathologyFloorMBps {
				capMBps = prof.PathologyFloorMBps
			}
		}
		// Degraded-OST ceilings are evaluated per chunk, so a stall
		// window opening mid-call slows the remaining segments only —
		// the within-call onset behind the flaky-OST signature.
		capMBps = minf(capMBps, c.fs.ostCapMBps(f, offset, length, p.Now()))
		c.node.Port.Transfer(p, per, flownet.StreamOpts{RateCap: capMBps})
	}
	if pathological {
		if grow := prof.PathologySeverityGrow; grow > 1 {
			rs.severity *= grow
		}
	}
	dur := p.Now() - start
	c.fs.noteOSTService(c.node.ID, f, offset, length, demand, dur)
	return dur
}
