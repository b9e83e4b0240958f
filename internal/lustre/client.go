package lustre

import (
	"math"

	"ensembleio/internal/cluster"
	"ensembleio/internal/flownet"
	"ensembleio/internal/sim"
)

// Client is the per-node file-system client: it owns the node's share
// of the page cache, the write queue, and the flusher that schedules
// write-back streams onto the node's fabric port.
//
// The flusher is the mechanism behind the harmonic mode structure of
// Figure 1(c): each time the flusher wakes from idle it samples a
// stream budget of 1, 2, or unlimited concurrent streaming writes
// (weighted random, per cluster.Profile.SlotWeights) and keeps it for
// the burst. A task streaming alone receives the node's whole fabric
// share — the "4R" mode; a pair shares it — "2R"; a full complement
// produces the fair-share "R" mode. Admission picks queued jobs at
// random, so which task gets exclusive service re-randomizes every
// burst and no task is consistently fast or slow, exactly as observed
// in §III.
type Client struct {
	fs   *FS
	node *cluster.Node

	bigQ       []*writeJob // streaming writes awaiting a slot
	pumpSet    bool        // a pump event is scheduled
	slots      int         // admitted-stream budget (0 = resample)
	activeBig  int         // streaming writes in flight
	inflightW  int         // write streams currently on the fabric
	absorbing  int         // writes currently copying into the page cache
	drain      bool        // a cache write-back stream is in flight
	drainArmed bool        // a delayed drain is scheduled
	workGen    int         // bumped on every enqueue; cancels delayed drains
	rng        *sim.RNG

	// Allocation-free machinery: pumpFn is the one dispatch closure the
	// client ever schedules; freeJobs is the client-owned writeJob free
	// list (jobs are recycled in their own done handler, see DESIGN.md
	// §11); smallScratch backs the greedy lane across dispatch calls;
	// drainChunk/drainDoneFn serve the single in-flight drain stream.
	pumpFn       func()
	freeJobs     []*writeJob
	smallScratch []*writeJob
	drainChunk   float64
	drainDoneFn  func()
}

type writeJob struct {
	c        *Client
	file     *File
	offset   int64   // extent start (OST attribution and fault caps)
	length   int64   // extent length
	demandMB float64 // noise-adjusted bytes to move
	regionMB float64 // original call region size (drives the lock cap)
	aligned  bool
	partials int     // partial-stripe RPC count (conflict exposure)
	luckCap  float64 // OST-luck rate cap (+Inf for a normal draw)
	wake     func()
	slot     bool     // occupies a streaming slot (releases activeBig on completion)
	capMBps  float64  // admission-time rate cap (lock/luck), pre-OST ceiling
	launched sim.Time // actual stream start (set by startFn)
	startFn  func()   // pre-bound: sample OST ceiling and start the stream
	doneFn   func()   // pre-bound: completion accounting, wake, recycle
}

func newClient(fs *FS, n *cluster.Node) *Client {
	c := &Client{fs: fs, node: n, rng: fs.rng.Fork(int64(n.ID) + 1)}
	c.pumpFn = func() {
		c.pumpSet = false
		c.dispatch()
	}
	c.drainDoneFn = c.drainDone
	return c
}

// newJob returns a reset writeJob, reusing one from the client's free
// list when possible. The start/done closures are bound once per object
// and read the job's current fields on every reuse.
func (c *Client) newJob() *writeJob {
	if n := len(c.freeJobs); n > 0 {
		j := c.freeJobs[n-1]
		c.freeJobs[n-1] = nil
		c.freeJobs = c.freeJobs[:n-1]
		return j
	}
	j := &writeJob{c: c}
	j.startFn = j.start
	j.doneFn = j.done
	return j
}

// Node returns the compute node this client runs on.
func (c *Client) Node() *cluster.Node { return c.node }

// Write performs one POSIX-level write of length bytes at offset for
// the caller of q, and runs k when it is done. Large contiguous
// regions are absorbed into the page cache while room remains
// (write-back); the remainder — and all fine-grained shared-file
// writes — move synchronously through the flusher.
func (c *Client) Write(q *Req, f *File, offset, length int64, k func()) {
	q.begin(k)
	q.c, q.f, q.offset, q.length = c, f, offset, length
	prof := c.fs.Cl.Prof
	q.sizeMB = mb(length)
	q.aligned = f.Layout.Aligned(offset, length)

	q.syncMB = q.sizeMB
	if q.sizeMB >= prof.CacheBypassBelowMB {
		// Each task's write absorbs into cache up to its per-task
		// dirty grant (the node budget split across cores), so
		// co-located tasks burst into cache concurrently.
		grant := prof.DirtyLimitMB
		if prof.CoresPerNode > 0 {
			grant /= float64(prof.CoresPerNode)
		}
		absorb := minf(grant, minf(c.node.DirtyRoomMB(), q.sizeMB))
		if absorb > 0 {
			c.fs.stats.AbsorbedMB += absorb
			c.node.DirtyMB += absorb
			q.syncMB -= absorb
			if prof.AbsorbMBps > 0 {
				c.absorbing++
				q.T.Sleep(sim.Duration(absorb/prof.AbsorbMBps), q.park(reqWriteAbsorbed))
				return
			}
		}
	}
	c.writeSync(q)
}

// writeSync queues the part of q's write the page cache did not
// absorb, parking the caller until its stream completes.
func (c *Client) writeSync(q *Req) {
	if q.syncMB <= 1e-12 {
		q.f.extend(q.offset + q.length)
		q.done()
		return
	}
	f, syncMB := q.f, q.syncMB
	job := c.newJob()
	job.file = f
	job.offset = q.offset
	job.length = q.length
	job.demandMB = syncMB * c.fs.Cl.ServiceNoise()
	job.regionMB = q.sizeMB
	job.aligned = q.aligned
	job.partials = f.Layout.PartialRPCs(q.offset, q.length)
	job.luckCap = c.fs.Cl.StreamLuck()
	job.wake = q.T.Block(q.park(reqWriteDone))
	c.fs.activeWriteJobs++
	f.activeWriters++
	c.fs.stats.WriteJobs++
	c.fs.stats.WriteMB += syncMB
	if tu := c.fs.tenantUsageFor(c.node.ID); tu != nil {
		tu.WriteJobs++
		tu.WriteMB += syncMB
	}
	if !math.IsInf(job.luckCap, 1) {
		c.fs.stats.LuckCapped++
	}
	c.workGen++
	c.bigQ = append(c.bigQ, job)
	c.pump()
}

// pump schedules the dispatch pass. Dispatch is deferred to a fresh
// event at the current time so that every same-instant enqueue (e.g.
// all ranks leaving a barrier) lands in the queue before admission
// decisions and contention counts are taken.
func (c *Client) pump() {
	if c.pumpSet {
		return
	}
	c.pumpSet = true
	c.fs.Cl.Eng.At(c.fs.Cl.Eng.Now(), c.pumpFn)
}

func (c *Client) dispatch() {
	prof := c.fs.Cl.Prof

	// Greedy lane: small writes are latency/lock-bound, not streaming-
	// bound, and luck-capped writes are stalled on a congested OST —
	// neither should hold a streaming slot.
	kept := c.bigQ[:0]
	small := c.smallScratch[:0]
	for _, j := range c.bigQ {
		if j.regionMB < prof.SlotMinMB || !math.IsInf(j.luckCap, 1) {
			small = append(small, j)
		} else {
			kept = append(kept, j)
		}
	}
	for i := len(kept); i < len(c.bigQ); i++ {
		c.bigQ[i] = nil
	}
	c.bigQ = kept
	for _, j := range small {
		c.launch(j)
	}
	for i := range small {
		small[i] = nil
	}
	c.smallScratch = small[:0]

	// Slot lane. The stream budget is resampled whenever the flusher
	// goes fully idle (in synchronous workloads: once per phase per
	// node); while work is pending, completed streams immediately
	// refill their slot with a randomly chosen queued job. Random
	// admission re-randomizes which task gets the exclusive-stream
	// service, so no task is consistently fast or slow.
	if len(c.bigQ) == 0 {
		if c.activeBig == 0 {
			c.slots = 0 // resample at next burst
			c.maybeDrain()
		}
		return
	}
	if c.slots == 0 {
		switch c.rng.Choose(prof.SlotWeights[:]) {
		case 0:
			c.slots = 1
		case 1:
			c.slots = 2
		default:
			c.slots = 1 << 30 // "all": pure fair share
		}
	}
	for c.activeBig < c.slots && len(c.bigQ) > 0 {
		i := c.rng.Intn(len(c.bigQ))
		j := c.bigQ[i]
		c.bigQ[i] = c.bigQ[len(c.bigQ)-1]
		c.bigQ[len(c.bigQ)-1] = nil
		c.bigQ = c.bigQ[:len(c.bigQ)-1]
		c.activeBig++
		j.slot = true
		c.launch(j)
	}
}

// launch starts the fabric stream for a write job. Jobs flagged with
// slot release their streaming slot on completion, in addition to
// waking the writer.
func (c *Client) launch(j *writeJob) {
	j.capMBps = minf(c.fs.writeCapMBps(j.file, j.regionMB, j.aligned), j.luckCap)
	c.inflightW++
	if delay := c.fs.conflictDelay(j.file, j.partials); delay > 0 {
		c.fs.Cl.Eng.After(delay, j.startFn)
	} else {
		j.start()
	}
}

// start samples the OST ceiling and opens the fabric stream. Degraded-
// OST ceilings are sampled at actual stream start so a stall window
// that opens mid-queue still catches the stream.
func (j *writeJob) start() {
	c := j.c
	j.launched = c.fs.Cl.Eng.Now()
	capMBps := minf(j.capMBps, c.fs.ostCapMBps(j.file, j.offset, j.length, j.launched))
	c.node.Port.Start(j.demandMB, flownet.StreamOpts{
		RateCap: capMBps,
		Done:    j.doneFn,
	})
}

// done is the stream-completion handler: accounting, writer wake, slot
// release, and recycling the job into the client's free list. After
// done returns the job may be reused by the next Write, so nothing may
// retain a reference past this point.
func (j *writeJob) done() {
	c := j.c
	c.fs.noteOSTService(c.node.ID, j.file, j.offset, j.length, j.demandMB, c.fs.Cl.Eng.Now()-j.launched)
	c.inflightW--
	c.fs.activeWriteJobs--
	j.file.activeWriters--
	j.wake()
	if j.slot {
		c.activeBig--
	}
	// Every completion pumps: a greedy-lane job may be the last writer,
	// and the idle drain must still arm.
	c.pump()
	j.file = nil
	j.wake = nil
	j.slot = false
	c.freeJobs = append(c.freeJobs, j)
}

// WriteBusy reports whether any application write is queued or in
// flight on this node — the interleaved-write condition that lets the
// strided read-ahead defect strike (cache write-back drains do not
// count; they release, not consume, memory).
func (c *Client) WriteBusy() bool {
	return len(c.bigQ) > 0 || c.inflightW > 0 || c.absorbing > 0
}

// maybeDrain arms a delayed write-back of dirty cache. Lustre clients
// keep dirty pages until a flush timer or memory pressure forces
// write-back, so short barrier waits between phases do NOT clean the
// cache — the persistence that keeps memory pressure high across the
// MADbench W phase. The drain starts only after the flusher has been
// idle for DrainIdleDelaySec; any new write cancels it.
func (c *Client) maybeDrain() {
	if c.drain || c.drainArmed || c.activeBig > 0 || len(c.bigQ) > 0 || c.node.DirtyMB <= 0 {
		return
	}
	c.drainArmed = true
	gen := c.workGen
	delay := sim.Duration(c.fs.Cl.Prof.DrainIdleDelaySec)
	c.fs.Cl.Eng.After(delay, func() {
		c.drainArmed = false
		if c.workGen == gen && c.activeBig == 0 && !c.drain && len(c.bigQ) == 0 {
			c.startDrain()
			return
		}
		// The idle window was interrupted. If the interrupting write
		// has already completed, restart the idle timer now —
		// otherwise its completion pump would find drainArmed still
		// set and the drain would never re-arm.
		c.maybeDrain()
	})
}

// startDrain immediately writes back one chunk of dirty cache.
func (c *Client) startDrain() {
	if c.drain || c.node.DirtyMB <= 0 {
		return
	}
	chunk := minf(c.node.DirtyMB, c.fs.Cl.Prof.DrainChunkMB)
	c.fs.stats.DrainChunks++
	c.drain = true
	// At most one drain stream is in flight (guarded by c.drain), so a
	// single chunk field plus the pre-bound done closure suffices.
	c.drainChunk = chunk
	c.node.Port.Start(chunk, flownet.StreamOpts{Done: c.drainDoneFn})
}

func (c *Client) drainDone() {
	c.node.DirtyMB -= c.drainChunk
	if c.node.DirtyMB < 0 {
		c.node.DirtyMB = 0
	}
	c.drain = false
	// Keep draining until work arrives or the cache is clean.
	if c.activeBig == 0 && len(c.bigQ) == 0 {
		c.startDrain()
	}
}

// Fsync parks the caller of q until the node's cache holds no dirty
// data and no write jobs remain queued or in flight for this client,
// polling every 10 ms, then runs k. Unlike the idle drain, fsync
// forces immediate write-back.
func (c *Client) Fsync(q *Req, k func()) {
	q.begin(k)
	q.c = c
	c.fsyncPoll(q)
}

func (c *Client) fsyncPoll(q *Req) {
	if c.node.DirtyMB > 0 || len(c.bigQ) > 0 || c.activeBig > 0 || c.drain {
		if !c.drain && c.activeBig == 0 && len(c.bigQ) == 0 {
			c.startDrain()
		}
		q.T.Sleep(0.01, q.park(reqFsyncPoll))
		return
	}
	q.done()
}
