// Package mpi provides a simulated MPI-like runtime on the virtual
// clock: ranks as lock-step processes placed on cluster nodes, plus
// the synchronization and data-movement primitives the workloads need
// (Barrier, Send/Recv, Gather) with simple latency/bandwidth costs.
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

	ranks []*Rank
	world *Comm

	// Telemetry handles, cached from the cluster's sink at construction
	// (nil handles no-op when telemetry is disabled).
	telBarriers    *telemetry.Counter
	telBarrierWait *telemetry.Hist
}

// Rank is one MPI task: a simulated process bound to a node.
type Rank struct {
	ID   int
	W    *World
	P    *sim.Proc
	Node *cluster.Node

	inbox   map[msgKey][]*message
	waiting map[msgKey]*sim.WaitQueue
}

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
	for i := 0; i < size; i++ {
		w.ranks = append(w.ranks, &Rank{
			ID:      i,
			W:       w,
			Node:    cl.NodeForTask(cfg.NodeBase*cl.Prof.CoresPerNode + i),
			inbox:   make(map[msgKey][]*message),
			waiting: make(map[msgKey]*sim.WaitQueue),
		})
	}
	all := make([]int, size)
	for i := range all {
		all[i] = i
	}
	w.world = w.NewComm(all)
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Rank returns rank i (for inspection; its process is set by Launch).
func (w *World) Rank(i int) *Rank { return w.ranks[i] }

// Launch spawns every rank's process running body. The caller then
// drives the engine (eng.Run).
func (w *World) Launch(body func(r *Rank)) {
	for _, r := range w.ranks {
		w.Eng.Spawn(fmt.Sprintf("rank%d", r.ID), func(p *sim.Proc) {
			r.P = p
			body(r)
		})
	}
}

// Barrier blocks until every rank in the world arrives.
func (r *Rank) Barrier() { r.W.world.Barrier(r) }

// Send transmits n logical bytes (and an optional payload pointer) to
// rank `to` with the given tag. The sender pays latency plus
// serialization time; delivery is asynchronous.
func (r *Rank) Send(to, tag int, n int64, payload interface{}) {
	cost := sim.Duration(r.W.cfg.LatencySec + float64(n)/1e6/r.W.cfg.LinkMBps)
	r.P.Sleep(cost)
	dst := r.W.ranks[to]
	k := msgKey{from: r.ID, tag: tag}
	dst.inbox[k] = append(dst.inbox[k], &message{bytes: n, payload: payload})
	if q := dst.waiting[k]; q != nil {
		q.WakeOne()
	}
}

// Recv blocks until a message with the given source and tag arrives
// and returns its size and payload.
func (r *Rank) Recv(from, tag int) (int64, interface{}) {
	k := msgKey{from: from, tag: tag}
	for len(r.inbox[k]) == 0 {
		q := r.waiting[k]
		if q == nil {
			q = &sim.WaitQueue{}
			r.waiting[k] = q
		}
		q.Wait(r.P)
	}
	m := r.inbox[k][0]
	r.inbox[k] = r.inbox[k][1:]
	return m.bytes, m.payload
}

// Comm is a communicator over a subset of world ranks.
type Comm struct {
	w     *World
	ranks []int       // world rank ids, in comm-rank order
	index map[int]int // world rank -> comm rank

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
	i, ok := c.index[r.ID]
	if !ok {
		panic(fmt.Sprintf("mpi: rank %d not in communicator", r.ID))
	}
	return i
}

// Barrier blocks until all communicator members arrive. Release costs
// a log2(n) latency tree.
func (c *Comm) Barrier(r *Rank) {
	c.CommRank(r) // membership check
	t0 := r.P.Now()
	gen := c.barGen
	c.barCount++
	if c.barCount < len(c.ranks) {
		for c.barGen == gen {
			c.barQ.Wait(r.P)
		}
	} else {
		c.barCount = 0
		c.barGen++
		c.barQ.WakeAll()
		// One count per completed barrier, charged to the last arriver.
		c.w.telBarriers.Inc()
	}
	r.P.Sleep(c.treeLatency())
	// Each rank's wait: arrival to release, the load-imbalance cost the
	// paper's phase analysis attributes to synchronization.
	c.w.telBarrierWait.Observe(float64(r.P.Now() - t0))
}

func (c *Comm) treeLatency() sim.Duration {
	n := len(c.ranks)
	if n <= 1 {
		return 0
	}
	return sim.Duration(math.Ceil(math.Log2(float64(n))) * c.w.cfg.LatencySec)
}

// Gather collects n bytes (with payload) from every member at the
// communicator's root (comm rank 0). Non-roots return once their
// contribution is sent; the root returns every payload in comm-rank
// order after paying the serialization cost of the full volume over
// its link.
func (c *Comm) Gather(r *Rank, n int64, payload interface{}) []interface{} {
	const gatherTag = -7717
	me := c.CommRank(r)
	rootWorld := c.ranks[0]
	if me != 0 {
		r.Send(rootWorld, gatherTag, n, payload)
		return nil
	}
	out := make([]interface{}, len(c.ranks))
	out[0] = payload
	total := int64(0)
	for i := 1; i < len(c.ranks); i++ {
		b, pl := r.Recv(c.ranks[i], gatherTag)
		out[i] = pl
		total += b
	}
	// Root-side drain of the incast volume.
	r.P.Sleep(sim.Duration(float64(total) / 1e6 / c.w.cfg.LinkMBps))
	r.P.Sleep(c.treeLatency())
	return out
}

// Bcast releases all members once the root arrives; members pay the
// tree latency plus serialization of n bytes.
func (c *Comm) Bcast(r *Rank, root int, n int64) {
	// Implemented as a barrier plus cost: adequate for the workloads,
	// which use Bcast only to distribute small configuration data.
	c.Barrier(r)
	r.P.Sleep(sim.Duration(float64(n) / 1e6 / c.w.cfg.LinkMBps))
}
