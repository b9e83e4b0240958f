// Package mpi provides a simulated MPI-like runtime on the virtual
// clock: ranks as stackless tasks placed on cluster nodes, plus the
// synchronization and data-movement primitives the workloads need
// (Barrier, Send/Recv, Gather) with simple latency/bandwidth costs.
//
// Every primitive takes a completion k and returns at once; k runs
// exactly once, when the call is done, and a call's result (Recv's
// payload, a collective's value) is then the rank's Result. A rank has
// at most one call outstanding, and its per-call state lives in the
// Rank, so no call allocates a closure.
//
// Only ordering semantics and rough communication costs matter to the
// I/O ensembles under study; message payloads are carried for program
// logic but never byte-copied.
package mpi

import (
	"fmt"
	"math"

	"ensembleio/internal/cluster"
	"ensembleio/internal/sim"
	"ensembleio/internal/telemetry"
)

// Config sets the communication cost model and the world's placement
// on a shared cluster.
type Config struct {
	// LatencySec is the per-hop message latency (default 2 us).
	LatencySec float64
	// LinkMBps is the per-node MPI bandwidth (default 1600 MB/s).
	LinkMBps float64
	// NodeBase shifts the world's block placement: rank i lands on
	// cluster node NodeBase + i/CoresPerNode. Multi-tenant sessions
	// give each tenant's world a disjoint node range; the zero value
	// is the single-tenant layout.
	NodeBase int
	// TelPrefix prefixes the world's telemetry metric names
	// ("tenant.<name>." on a multi-tenant session), so each tenant's
	// barrier counters stay separable in the merged snapshot. Empty
	// means the bare "mpi.*" names.
	TelPrefix string
}

// World is a set of ranks with MPI_COMM_WORLD semantics.
type World struct {
	Eng  *sim.Engine
	Cl   *cluster.Cluster
	cfg  Config
	size int

	ranks []Rank // one slice per world, not one object per rank
	world *Comm

	// Telemetry handles, cached from the cluster's sink at construction
	// (nil handles no-op when telemetry is disabled).
	telBarriers    *telemetry.Counter
	telBarrierWait *telemetry.Hist
}

// Rank is one MPI task: a simulated task bound to a node.
type Rank struct {
	ID   int
	W    *World
	T    *sim.Task
	Node *cluster.Node

	// Point-to-point state, made on the rank's first Send or Recv:
	// most ranks of a collective workload never message.
	inbox   map[msgKey][]*message
	waiting map[msgKey]*sim.WaitQueue

	// The outstanding call: what its pending park resumes into, the
	// caller's completion, and the pre-bound continuation.
	state rankState
	k     func()
	step  func()

	comm *Comm
	t0   sim.Time // Barrier: arrival time
	gen  int      // the rendezvous generation the rank waits out
	x    *rankCall
}

// rankCall is the state of a rank's calls beyond Barrier, made on the
// rank's first such call: most ranks of a workload only ever reach
// barriers.
type rankCall struct {
	bcast  bool         // Barrier: a Bcast's payload cost follows
	pick   collKind     // collective: which part of the result is the rank's
	key    msgKey       // Recv: source; Send: destination and tag
	n      int64        // Send: bytes; Gather root: bytes received
	i      int          // Gather root: next member to receive from
	d1, d2 sim.Duration // the call's closing cost sleeps
	val    interface{}  // Send's payload in flight, then the call's result
}

// rankState is what a rank's pending park resumes into.
type rankState uint8

const (
	rankIdle rankState = iota
	rankBarrierWait
	rankBarrierOut
	rankCollWait
	rankSleep1
	rankSleep2
	rankSend
	rankRecv
	rankGather
)

type msgKey struct {
	from, tag int
}

type message struct {
	bytes   int64
	payload interface{}
}

// NewWorld creates a world of size ranks block-placed on the cluster
// (CoresPerNode ranks per node). The cluster must be large enough.
func NewWorld(eng *sim.Engine, cl *cluster.Cluster, size int, cfg Config) *World {
	if cfg.LatencySec == 0 {
		cfg.LatencySec = 2e-6
	}
	if cfg.LinkMBps == 0 {
		cfg.LinkMBps = 1600
	}
	w := &World{Eng: eng, Cl: cl, cfg: cfg, size: size}
	w.telBarriers = cl.Tel.Counter(cfg.TelPrefix + "mpi.barriers")
	w.telBarrierWait = cl.Tel.Hist(cfg.TelPrefix + "mpi.barrier_wait_s")
	w.ranks = make([]Rank, size)
	all := make([]int, size)
	for i := range w.ranks {
		w.ranks[i] = Rank{
			ID:   i,
			W:    w,
			Node: cl.NodeForTask(cfg.NodeBase*cl.Prof.CoresPerNode + i),
		}
		all[i] = i
	}
	// The world communicator's comm rank is the world rank: it needs
	// no index.
	w.world = &Comm{w: w, ranks: all}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Rank returns rank i (for inspection; its task is set by Launch).
func (w *World) Rank(i int) *Rank { return &w.ranks[i] }

// Launch spawns every rank's task: start runs as the rank's first
// step, and the rank calls Exit once its body is done. The caller then
// drives the engine (eng.Run). The tasks are one slice, named "rank<i>"
// only when a diagnostic asks.
func (w *World) Launch(start func(r *Rank)) {
	tasks := sim.NewTasks(w.Eng, "rank", len(w.ranks))
	for i := range w.ranks {
		w.ranks[i].T = &tasks[i]
	}
	w.Eng.SpawnAll(tasks, func(i uint64) { start(&w.ranks[i]) })
}

// Exit ends the rank's task.
func (r *Rank) Exit() { r.T.Exit() }

// Result returns the value the rank's last Recv, Gather or collective
// produced: Recv's payload, Gather's payloads at the root (nil at
// every other member), or the rank's part of a collective's result.
func (r *Rank) Result() interface{} {
	if r.x == nil {
		return nil
	}
	return r.x.val
}

// ext returns the rank's call state beyond Barrier, making it on first
// use.
func (r *Rank) ext() *rankCall {
	if r.x == nil {
		r.x = &rankCall{}
	}
	return r.x
}

// begin starts a call that completes with k.
func (r *Rank) begin(k func()) {
	if r.step == nil {
		r.step = r.resume
	}
	r.k = k
}

// park records what the pending park resumes into and returns the
// continuation to park with.
func (r *Rank) park(s rankState) func() {
	r.state = s
	return r.step
}

// done completes the outstanding call.
func (r *Rank) done() {
	k := r.k
	r.state, r.k, r.comm = rankIdle, nil, nil
	k()
}

// resume continues the outstanding call after a park.
func (r *Rank) resume() {
	switch r.state {
	case rankBarrierWait:
		c := r.comm
		if c.barGen == r.gen {
			c.barQ.Wait(r.T, r.park(rankBarrierWait))
			return
		}
		r.barrierOut()
	case rankBarrierOut:
		// Each rank's wait: arrival to release, the load-imbalance
		// cost the paper's phase analysis attributes to
		// synchronization.
		r.comm.w.telBarrierWait.Observe(float64(r.T.Now() - r.t0))
		if x := r.x; x != nil && x.bcast {
			x.bcast = false
			r.T.Sleep(x.d2, r.park(rankSleep2))
			return
		}
		r.done()
	case rankCollWait:
		if r.comm.collSt.gen == r.gen {
			r.comm.collSt.q.Wait(r.T, r.park(rankCollWait))
			return
		}
		r.collOut()
	case rankSleep1:
		r.T.Sleep(r.x.d2, r.park(rankSleep2))
	case rankSleep2:
		r.done()
	case rankSend:
		r.deliver()
	case rankRecv:
		r.recv()
	case rankGather:
		r.gatherNext()
	default:
		panic(fmt.Sprintf("mpi: rank %d resumed with no call outstanding", r.ID))
	}
}

// sleep2 pays the call's two closing costs, each its own sleep, then
// completes it.
func (r *Rank) sleep2(d1, d2 sim.Duration) {
	r.x.d2 = d2
	r.T.Sleep(d1, r.park(rankSleep1))
}

// Barrier blocks until every rank in the world arrives.
func (r *Rank) Barrier(k func()) { r.W.world.Barrier(r, k) }

// Send transmits n logical bytes (and an optional payload pointer) to
// rank `to` with the given tag. The sender pays latency plus
// serialization time; delivery is asynchronous.
func (r *Rank) Send(to, tag int, n int64, payload interface{}, k func()) {
	r.begin(k)
	x := r.ext()
	x.key, x.n, x.val = msgKey{from: to, tag: tag}, n, payload
	cost := sim.Duration(r.W.cfg.LatencySec + float64(n)/1e6/r.W.cfg.LinkMBps)
	r.T.Sleep(cost, r.park(rankSend))
}

// deliver queues the sent message at its destination, waking a
// receiver parked on it.
func (r *Rank) deliver() {
	x := r.x
	dst := &r.W.ranks[x.key.from]
	if dst.inbox == nil {
		dst.inbox = make(map[msgKey][]*message)
	}
	k := msgKey{from: r.ID, tag: x.key.tag}
	dst.inbox[k] = append(dst.inbox[k], &message{bytes: x.n, payload: x.val})
	x.val = nil
	if q := dst.waiting[k]; q != nil {
		q.WakeOne()
	}
	r.done()
}

// Recv blocks until a message with the given source and tag arrives;
// its payload is then the rank's Result.
func (r *Rank) Recv(from, tag int, k func()) {
	r.begin(k)
	r.ext().key = msgKey{from: from, tag: tag}
	r.recv()
}

func (r *Rank) recv() {
	m, ok := r.take(r.x.key, rankRecv)
	if !ok {
		return
	}
	r.x.val = m.payload
	r.done()
}

// take pops the oldest message under key. With none queued it parks
// the rank on key's wait queue, to resume into state s, and reports
// false.
func (r *Rank) take(key msgKey, s rankState) (*message, bool) {
	if q := r.inbox[key]; len(q) > 0 {
		r.inbox[key] = q[1:]
		return q[0], true
	}
	q := r.waiting[key]
	if q == nil {
		if r.waiting == nil {
			r.waiting = make(map[msgKey]*sim.WaitQueue)
		}
		q = &sim.WaitQueue{}
		r.waiting[key] = q
	}
	q.Wait(r.T, r.park(s))
	return nil, false
}

// Comm is a communicator over a subset of world ranks.
type Comm struct {
	w     *World
	ranks []int       // world rank ids, in comm-rank order
	index map[int]int // world rank -> comm rank; nil on the world comm

	barGen   int
	barCount int
	barQ     sim.WaitQueue

	collSt *collState
}

// NewComm builds a communicator from world rank ids.
func (w *World) NewComm(worldRanks []int) *Comm {
	c := &Comm{w: w, ranks: append([]int(nil), worldRanks...), index: make(map[int]int)}
	for i, wr := range c.ranks {
		c.index[wr] = i
	}
	return c
}

// Size returns the communicator size.
func (c *Comm) Size() int { return len(c.ranks) }

// CommRank returns r's rank within the communicator; it panics if r is
// not a member.
func (c *Comm) CommRank(r *Rank) int {
	if c.index == nil { // the world comm: comm rank = world rank
		if r.W == c.w && r.ID >= 0 && r.ID < len(c.ranks) {
			return r.ID
		}
	} else if i, ok := c.index[r.ID]; ok {
		return i
	}
	panic(fmt.Sprintf("mpi: rank %d not in communicator", r.ID))
}

// Barrier blocks until all communicator members arrive. Release costs
// a log2(n) latency tree.
func (c *Comm) Barrier(r *Rank, k func()) {
	c.CommRank(r) // membership check
	r.begin(k)
	r.comm, r.t0, r.gen = c, r.T.Now(), c.barGen
	c.barCount++
	if c.barCount < len(c.ranks) {
		c.barQ.Wait(r.T, r.park(rankBarrierWait))
		return
	}
	c.barCount = 0
	c.barGen++
	c.barQ.WakeAll()
	// One count per completed barrier, charged to the last arriver.
	c.w.telBarriers.Inc()
	r.barrierOut()
}

// barrierOut pays the release tree latency of r's barrier.
func (r *Rank) barrierOut() {
	r.T.Sleep(r.comm.treeLatency(), r.park(rankBarrierOut))
}

func (c *Comm) treeLatency() sim.Duration {
	n := len(c.ranks)
	if n <= 1 {
		return 0
	}
	return sim.Duration(math.Ceil(math.Log2(float64(n))) * c.w.cfg.LatencySec)
}

// gatherTag is the message tag Gather's contributions travel under.
const gatherTag = -7717

// Gather collects n bytes (with payload) from every member at the
// communicator's root (comm rank 0). Non-roots complete once their
// contribution is sent; the root completes with every payload, in
// comm-rank order, as its Result, after paying the serialization cost
// of the full volume over its link.
func (c *Comm) Gather(r *Rank, n int64, payload interface{}, k func()) {
	if c.CommRank(r) != 0 {
		r.Send(c.ranks[0], gatherTag, n, payload, k)
		return
	}
	r.begin(k)
	out := make([]interface{}, len(c.ranks))
	out[0] = payload
	r.comm = c
	x := r.ext()
	x.val, x.i, x.n = out, 1, 0
	r.gatherNext()
}

// gatherNext receives the root's outstanding contributions in comm-rank
// order, parking until each arrives, then drains the incast volume.
func (r *Rank) gatherNext() {
	c, x := r.comm, r.x
	out := x.val.([]interface{})
	for x.i < len(c.ranks) {
		m, ok := r.take(msgKey{from: c.ranks[x.i], tag: gatherTag}, rankGather)
		if !ok {
			return
		}
		out[x.i] = m.payload
		x.n += m.bytes
		x.i++
	}
	// Root-side drain of the incast volume.
	r.sleep2(c.linkTime(float64(x.n)), c.treeLatency())
}

// Bcast releases all members once the root arrives; members pay the
// tree latency plus serialization of n bytes.
func (c *Comm) Bcast(r *Rank, root int, n int64, k func()) {
	// Implemented as a barrier plus cost: adequate for the workloads,
	// which use Bcast only to distribute small configuration data.
	x := r.ext()
	x.bcast, x.d2 = true, c.linkTime(float64(n))
	c.Barrier(r, k)
}
