// Package cluster models the architectural platforms of the study: a
// Cray-XT-like machine with multicore compute nodes, per-node links
// into a shared I/O fabric, a Lustre-like object-storage back end, and
// the per-node page-cache memory that mediates write-back caching.
//
// The model captures the shared-resource structure that produces the
// paper's performance ensembles: the aggregate fabric capacity is
// divided among node clients, each node's share among its I/O streams,
// and stochastic service variability plus background load from other
// jobs make individual events erratic while leaving the ensemble
// distribution stable.
package cluster

import (
	"fmt"
	"math"

	"ensembleio/internal/flownet"
	"ensembleio/internal/sim"
	"ensembleio/internal/telemetry"
)

// Profile describes a machine and its file-system behaviour constants.
// Stock profiles Franklin and Jaguar correspond to the paper's two
// platforms (LBNL Franklin XT4, ORNL Jaguar XT4 partition).
type Profile struct {
	Name         string
	CoresPerNode int

	// NodeLinkMBps is the per-node injection bandwidth into the I/O
	// fabric (HyperTransport/SeaStar path; generous relative to the
	// node's fair share of the aggregate).
	NodeLinkMBps float64
	// AggregateMBps is the network-limited aggregate file-system
	// bandwidth (~16-18 GB/s on Franklin scratch).
	AggregateMBps float64

	// OSTs is the number of object storage targets; OSTServiceMBps the
	// per-OST streaming service rate. Effective aggregate capacity is
	// min(AggregateMBps, OSTs*OSTServiceMBps).
	OSTs           int
	OSTServiceMBps float64
	// StripeMB is the Lustre stripe (RPC) size, 1 MB on both systems.
	StripeMB float64

	// DirtyLimitMB is the per-node writable page-cache budget: writes
	// are absorbed instantly-ish into cache until this much dirty data
	// accumulates, then become synchronous with the flusher.
	DirtyLimitMB float64
	// AbsorbMBps is the per-task rate at which writes copy into the
	// page cache (grant-limited, well above the fabric fair share).
	AbsorbMBps float64

	// MDS small-operation model: a serialized metadata operation costs
	// MDSBaseLatency plus payload serialization at SmallIORateMBps.
	// Small *writes* additionally suffer a slow tail: with probability
	// MDSSlowProb the op stalls an extra Uniform(MDSSlowLoSec,
	// MDSSlowHiSec) seconds — lock revocation against thousands of
	// clients holding extents on a busy shared file system. Stripe-
	// aligned small writes see the tail damped by AlignedMetaRelief
	// (the paper notes metadata "benefited somewhat from alignment").
	MDSBaseLatency sim.Duration
	// MDSConcurrency is the metadata service's request parallelism:
	// independent clients' operations overlap up to this width (a
	// single rank's sequential stream gains nothing). Default 16.
	MDSConcurrency    int
	SmallIOBytes      int64   // ops at or below this size use the MDS path
	SmallIORateMBps   float64 // payload rate for small serialized I/O
	MDSSlowProb       float64
	MDSSlowLoSec      float64
	MDSSlowHiSec      float64
	AlignedMetaRelief float64 // multiplier (<1) on slow prob & span when aligned

	// Extent-lock contention: the per-stream rate cap for shared-file
	// writes is LockCapMBps / (writersPerOST ^ LockGamma); unaligned
	// writes additionally divide the cap by UnalignedPenalty because
	// partial-stripe RPCs bounce extent locks between clients.
	LockCapMBps      float64
	LockGamma        float64
	UnalignedPenalty float64

	// Read-ahead model. Normal streaming reads are limited by
	// ReadCapMBps per stream. When the strided-read-ahead defect is
	// active (see PatchStridedReadahead) and memory pressure is high,
	// reads degenerate to page-sized RPCs at PathologyMBps, further
	// divided by the per-phase severity growth.
	ReadCapMBps float64
	// ReadChunks is the number of segments a read is served in; the
	// strided defect can strike between segments (default 16).
	ReadChunks            int
	PathologyMBps         float64
	PathologySeverityGrow float64 // multiplicative per strided phase
	PathologyFloorMBps    float64 // severity growth never caps below this
	PatchStridedReadahead bool    // true = the Lustre fix is installed

	// Stochastic service variability: every transfer's demand is
	// multiplied by Lognormal(0, NoiseSigma); with probability
	// StragglerProb it is additionally multiplied by a Pareto(1,
	// StragglerAlpha) factor, producing the heavy right tails of
	// production file systems.
	NoiseSigma     float64
	StragglerProb  float64
	StragglerAlpha float64

	// OST luck: with probability SlowLuckProb a transfer lands on a
	// congested OST set and its rate is capped at an absolute
	// Uniform(SlowLuckLoMBps, SlowLuckHiMBps) for the whole call —
	// bandwidth freed elsewhere cannot help it. This non-work-
	// conserving tail is what makes splitting a block into k calls pay
	// off (Figure 2): each call redraws its luck, so per-task totals
	// regress to the mean by the Law of Large Numbers.
	SlowLuckProb   float64
	SlowLuckLoMBps float64
	SlowLuckHiMBps float64

	// Flusher stream scheduling: when a node's client flushes the
	// write queue it admits 1, 2, or all waiting streams for the
	// epoch, with these relative weights. This is the mechanism that
	// produces the R / 2R / 4R harmonic mode structure of Figure 1c.
	SlotWeights [3]float64

	// CacheBypassBelowMB: writes smaller than this are written through
	// synchronously rather than absorbed into the page cache. Shared-
	// file writes at fine interleaving defeat client caching because
	// conflicting extent locks force immediate flushes; large
	// contiguous regions (IOR blocks, MADbench matrices) cache
	// normally.
	CacheBypassBelowMB float64
	// SlotMinMB: only streaming writes at least this large compete for
	// flusher epoch slots; smaller writes are dispatched greedily
	// (they are latency/lock-bound, not streaming-bound).
	SlotMinMB float64
	// DrainChunkMB is the granularity at which an idle flusher writes
	// back dirty cache; DrainIdleDelaySec is how long the flusher must
	// be idle before write-back starts (the Lustre flush-timer lag
	// that keeps dirty pages resident across short barrier waits).
	DrainChunkMB      float64
	DrainIdleDelaySec float64

	// Extent-lock conflicts for unaligned shared-file writes: each
	// write suffers a conflict with probability
	// min(ConflictProbMax, ConflictProbPerWriterPerOST * writersPerOST^2)
	// — quadratic in writer density, because both the chance that a
	// neighbouring extent is being written and the chance its lock is
	// currently held elsewhere grow with density — and then stalls for
	// Uniform(ConflictDelayLoSec,
	// ConflictDelayHiSec) seconds per partial-stripe RPC while the
	// contended extent locks bounce between clients. For 1.6 MB GCRM
	// records (two partial RPCs) this produces the slow "bulge" of
	// Figure 6(f) that alignment removes; for a 300 MB matrix (one
	// trailing partial RPC) it is a minor perturbation.
	ConflictProbPerWriterPerOST float64
	ConflictProbMax             float64
	ConflictDelayLoSec          float64
	ConflictDelayHiSec          float64

	// Background load from other jobs: mean consumed bandwidth and
	// mean burst size of the injected competing streams. Zero disables.
	BackgroundMeanMBps float64
	BackgroundBurstMB  float64

	// Quantum is the fluid-rate recomputation interval.
	Quantum sim.Duration
}

// EffectiveAggregateMBps is the back-end capacity after the OST limit.
func (p Profile) EffectiveAggregateMBps() float64 {
	ost := float64(p.OSTs) * p.OSTServiceMBps
	if ost > 0 && ost < p.AggregateMBps {
		return ost
	}
	return p.AggregateMBps
}

// Franklin returns the profile of the LBNL Cray XT4 (quad-core nodes,
// 48-OST Lustre scratch, ~16 GB/s aggregate). Constants are calibrated
// so the paper's shape claims hold; see DESIGN.md §6.
func Franklin() Profile {
	return Profile{
		Name:                  "franklin",
		CoresPerNode:          4,
		NodeLinkMBps:          1600,
		AggregateMBps:         16000,
		OSTs:                  48,
		OSTServiceMBps:        360,
		StripeMB:              1,
		DirtyLimitMB:          256,
		AbsorbMBps:            120,
		MDSBaseLatency:        0.0012,
		MDSConcurrency:        16,
		SmallIOBytes:          64 << 10,
		SmallIORateMBps:       40,
		MDSSlowProb:           0.25,
		MDSSlowLoSec:          0.3,
		MDSSlowHiSec:          2.4,
		AlignedMetaRelief:     0.7,
		LockCapMBps:           110,
		LockGamma:             1.034,
		UnalignedPenalty:      1.15,
		ReadCapMBps:           220,
		ReadChunks:            16,
		PathologyMBps:         5,
		PathologySeverityGrow: 2.4,
		PathologyFloorMBps:    0.3,
		PatchStridedReadahead: false,
		NoiseSigma:            0.16,
		StragglerProb:         0,
		StragglerAlpha:        1.8,
		SlowLuckProb:          0.005,
		SlowLuckLoMBps:        10,
		SlowLuckHiMBps:        26,
		SlotWeights:           [3]float64{0.40, 0.30, 0.30},
		CacheBypassBelowMB:    8,
		SlotMinMB:             16,
		DrainChunkMB:          64,
		DrainIdleDelaySec:     30,

		ConflictProbPerWriterPerOST: 4e-5,
		ConflictProbMax:             0.50,
		ConflictDelayLoSec:          0.75,
		ConflictDelayHiSec:          10,

		BackgroundMeanMBps: 900,
		BackgroundBurstMB:  512,
		Quantum:            0.05,
	}
}

// Jaguar returns the profile of the ORNL XT4 partition used in §IV:
// 144 OSTs, roughly twice Franklin's aggregate bandwidth, a larger
// usable cache, and a read-ahead implementation that does not exhibit
// the strided-detection pathology in this workload regime.
func Jaguar() Profile {
	p := Franklin()
	p.Name = "jaguar"
	p.OSTs = 144
	p.OSTServiceMBps = 300
	p.AggregateMBps = 22000
	p.DirtyLimitMB = 512
	p.LockCapMBps = 220
	p.ReadCapMBps = 260
	p.PatchStridedReadahead = true // pathology not triggered on Jaguar
	p.NoiseSigma = 0.10
	p.SlowLuckProb = 0.003
	p.SlowLuckLoMBps = 15
	p.SlowLuckHiMBps = 40
	p.BackgroundMeanMBps = 1500
	p.BackgroundBurstMB = 512
	return p
}

// Node is one compute node: a fabric port plus page-cache state.
type Node struct {
	ID      int
	Port    *flownet.Port
	DirtyMB float64
	cl      *Cluster
}

// Cluster is an instantiated machine: engine, fabric, nodes, RNG and
// optional background load.
type Cluster struct {
	Eng    *sim.Engine
	Prof   Profile
	Fabric *flownet.Fabric
	Nodes  []*Node
	RNG    *sim.RNG

	// Tel is the run's telemetry sink; nil when telemetry is disabled
	// (every layer's handles then no-op). Set via Instrument so the
	// lustre and mpi layers built on top of the cluster can pick it up
	// at construction time.
	Tel *telemetry.Sink

	bgPort    *flownet.Port
	bgStopped bool

	telBursts  *telemetry.Counter
	telBurstMB *telemetry.Counter
}

// New builds a cluster of nNodes nodes for the profile. The seed
// drives all stochastic behaviour; two clusters with the same seed
// evolve identically, and different seeds model different runs of the
// same experiment (the paper's run-to-run variability).
func New(eng *sim.Engine, prof Profile, nNodes int, seed int64) *Cluster {
	if nNodes <= 0 {
		panic("cluster: need at least one node")
	}
	fab := flownet.New(eng, flownet.Config{
		AggregateMBps: prof.EffectiveAggregateMBps(),
		Quantum:       prof.Quantum,
	})
	c := &Cluster{Eng: eng, Prof: prof, Fabric: fab, RNG: sim.NewRNG(seed)}
	for i := 0; i < nNodes; i++ {
		c.Nodes = append(c.Nodes, &Node{ID: i, Port: fab.NewPort(prof.NodeLinkMBps), cl: c})
	}
	if prof.BackgroundMeanMBps > 0 {
		// The background port's weight makes competing jobs consume
		// roughly BackgroundMeanMBps of the aggregate when the fabric
		// is saturated.
		agg := prof.EffectiveAggregateMBps()
		w := prof.BackgroundMeanMBps / (agg - prof.BackgroundMeanMBps) * float64(nNodes)
		c.bgPort = fab.NewWeightedPort(0, w)
		c.scheduleBackground()
	}
	return c
}

// Instrument attaches a telemetry sink to the cluster and the fabric
// beneath it. Call it right after New, before building lustre/mpi
// layers on top — they cache their handles from Tel at construction.
// A nil sink is fine (and is the disabled default).
//
// The first background burst is started by New itself, before any
// Instrument call can run; burst telemetry therefore counts *completed*
// bursts, recorded in the stream-done callbacks, which only fire during
// the engine run — deterministically after instrumentation.
func (c *Cluster) Instrument(tel *telemetry.Sink) {
	c.Tel = tel
	c.telBursts = tel.Counter("cluster.bg_bursts")
	c.telBurstMB = tel.Counter("cluster.bg_burst_mb")
	c.Fabric.Instrument(tel)
}

// scheduleBackground keeps a competing-job stream alive on the
// background port: bursts of BackgroundBurstMB with exponentially
// distributed think gaps. It reschedules itself until StopBackground.
func (c *Cluster) scheduleBackground() {
	if c.bgStopped {
		return
	}
	rng := c.RNG
	burst := c.Prof.BackgroundBurstMB * rng.Lognormal(0, 0.5)
	c.bgPort.Start(burst, flownet.StreamOpts{Done: func() {
		c.telBursts.Inc()
		c.telBurstMB.Add(burst)
		if c.bgStopped {
			return
		}
		gap := sim.Duration(rng.Exp(0.2))
		c.Eng.After(gap, c.scheduleBackground)
	}})
}

// StopBackground halts the background-load injector so the event queue
// can drain at the end of a workload.
func (c *Cluster) StopBackground() { c.bgStopped = true }

// BackgroundStopped reports whether StopBackground has been called.
// Self-rescheduling load injectors (scheduleBackground, InjectBurstLoad)
// consult it so the event queue can drain once the workload finishes.
func (c *Cluster) BackgroundStopped() bool { return c.bgStopped }

// Machine is the name the fault-injection layer uses for an
// instantiated cluster (see internal/faults).
type Machine = Cluster

// InjectBurstLoad starts a deterministic competing-load injector: from
// startSec on, bursts that consume up to mbps MB/s of the aggregate
// for onSec seconds, separated by offSec of silence. Unlike the
// profile's stochastic background stream, the schedule is a fixed
// function of virtual time — fault injection wants phase-correlated,
// exactly reproducible contention. The injector honors StopBackground
// like the stochastic one.
func (c *Cluster) InjectBurstLoad(mbps, onSec, offSec, startSec float64) {
	if mbps <= 0 || onSec <= 0 {
		panic("cluster: burst load needs a positive rate and on-window")
	}
	agg := c.Prof.EffectiveAggregateMBps()
	if mbps > 0.95*agg {
		mbps = 0.95 * agg
	}
	// Weight chosen like the stochastic background port's: heavy enough
	// that the burst consumes ~mbps even when every node is pushing.
	w := mbps / (agg - mbps) * float64(len(c.Nodes))
	port := c.Fabric.NewWeightedPort(0, w)
	var burst func()
	burst = func() {
		if c.bgStopped {
			return
		}
		port.Start(mbps*onSec, flownet.StreamOpts{
			RateCap: mbps,
			Done: func() {
				c.telBursts.Inc()
				c.telBurstMB.Add(mbps * onSec)
				if c.bgStopped {
					return
				}
				c.Eng.After(sim.Duration(offSec), burst)
			},
		})
	}
	c.Eng.After(sim.Duration(startSec), burst)
}

// NewExternalNode appends a node that models another tenant's
// injection point into the shared fabric: a rate-capped weighted port
// with no compute placement (NodeForTask never maps ranks onto it).
// The weight is relative to the application ports' unit weight, so a
// heavy weight lets the external stream claim ~its cap even when every
// application node is pushing. Used by the background-bursts fault,
// which drives a real write workload through a lustre client mounted
// on the returned node (lustre.FS.AddExternalClient).
func (c *Cluster) NewExternalNode(capMBps, weight float64) *Node {
	n := &Node{ID: len(c.Nodes), Port: c.Fabric.NewWeightedPort(capMBps, weight), cl: c}
	c.Nodes = append(c.Nodes, n)
	return n
}

// MemoryPressure reports the node's dirty-page pressure in [0, 1+]:
// the ratio of dirty cache to the dirty limit.
func (n *Node) MemoryPressure() float64 {
	if n.cl.Prof.DirtyLimitMB <= 0 {
		return 1
	}
	return n.DirtyMB / n.cl.Prof.DirtyLimitMB
}

// DirtyRoomMB reports how much more data the node's cache can absorb.
func (n *Node) DirtyRoomMB() float64 {
	room := n.cl.Prof.DirtyLimitMB - n.DirtyMB
	if room < 0 {
		return 0
	}
	return room
}

// Cluster returns the owning cluster.
func (n *Node) Cluster() *Cluster { return n.cl }

// NodeForTask maps a task (MPI rank) to its node under block
// assignment with CoresPerNode tasks per node.
func (c *Cluster) NodeForTask(rank int) *Node {
	idx := rank / c.Prof.CoresPerNode
	if idx >= len(c.Nodes) {
		panic(fmt.Sprintf("cluster: rank %d needs node %d but cluster has %d nodes", rank, idx, len(c.Nodes)))
	}
	return c.Nodes[idx]
}

// ServiceNoise draws the multiplicative service-variability factor for
// one transfer: lognormal jitter with an occasional Pareto straggler.
func (c *Cluster) ServiceNoise() float64 {
	f := c.RNG.Lognormal(0, c.Prof.NoiseSigma)
	if c.RNG.Bernoulli(c.Prof.StragglerProb) {
		f *= c.RNG.Pareto(1, c.Prof.StragglerAlpha)
	}
	return f
}

// StreamLuck draws the OST-luck rate cap for one transfer: usually
// unbounded (+Inf), occasionally an absolute slow cap in MB/s.
func (c *Cluster) StreamLuck() float64 {
	if c.Prof.SlowLuckProb > 0 && c.RNG.Bernoulli(c.Prof.SlowLuckProb) {
		return c.RNG.Uniform(c.Prof.SlowLuckLoMBps, c.Prof.SlowLuckHiMBps)
	}
	return math.Inf(1)
}
