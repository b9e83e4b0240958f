package lustre

import (
	"fmt"
	"math"

	"ensembleio/internal/cluster"
	"ensembleio/internal/sim"
	"ensembleio/internal/telemetry"
)

// FS is one mounted parallel file system instance on a cluster. It
// owns the namespace, the per-node clients, the metadata service, and
// the shared-file contention state.
type FS struct {
	Cl      *cluster.Cluster
	files   map[string]*File
	clients []*Client

	mds sim.Semaphore // serializes metadata-path operations

	// activeWriteJobs counts write jobs that are queued or in flight
	// file-system-wide; it drives the writers-per-OST extent-lock
	// contention term.
	activeWriteJobs int

	rng   *sim.RNG
	stats Stats

	// Multi-tenant accounting (see RegisterTenant): tenantOf maps a
	// node ID to its tenant index (-1 = unattributed), tenantUsage
	// holds each tenant's slice of the server-side view. Both stay nil
	// on single-tenant mounts, costing the data path one length check.
	tenantOf    []int
	tenantUsage []TenantUsage

	// ostScratch backs Layout.ForEachOSTBuf in the per-stream
	// accounting paths (single-threaded under the lock-step engine, so
	// one FS-wide buffer is safe).
	ostScratch []int64

	// DefaultStripeCount, when non-zero, is the stripe count assigned
	// to newly created files (0 = stripe over all OSTs) — the
	// `lfs setstripe -c` default of the mount. File-per-process fault
	// studies set 1 so each file is pinned to a single OST.
	DefaultStripeCount int

	// nextOST is the round-robin starting-OST assignment counter for
	// new files (Lustre's default allocator behaviour, modulo load
	// balancing).
	nextOST int

	// Injected degradations (see internal/faults). ostMul is a
	// per-OST permanent service-rate multiplier (nil = all clean);
	// ostStalls are periodic stall windows in virtual time; mdsDeg
	// elevates the lock-revocation tail on every metadata op.
	ostMul    []float64
	ostStalls []ostStall
	mdsDeg    *mdsDegrade

	// Telemetry handles, cached from the cluster's sink at mount (nil
	// handles no-op). Only the two hot-path signals are recorded live;
	// bulk per-OST accounting is folded from Stats when a run finishes.
	telStreamS   *telemetry.Hist
	telPathology *telemetry.Counter
}

// ostStall is one periodic stall window on one OST: from startSec on,
// the first stallSec of every periodSec the OST serves at factor times
// its rate.
type ostStall struct {
	ost       int
	startSec  float64
	periodSec float64
	stallSec  float64
	factor    float64
}

// mdsDegrade elevates the metadata path's lock-revocation tail: every
// MDS op stalls an extra Uniform(loSec, hiSec) with probability prob.
type mdsDegrade struct {
	prob, loSec, hiSec float64
}

// NewFS mounts a file system on the cluster with one client per node.
func NewFS(cl *cluster.Cluster) *FS {
	fs := &FS{
		Cl:           cl,
		files:        make(map[string]*File),
		rng:          cl.RNG.Fork(0x10f5),
		telStreamS:   cl.Tel.Hist("lustre.stream_service_s"),
		telPathology: cl.Tel.Counter("lustre.readahead_pathologies"),
	}
	conc := cl.Prof.MDSConcurrency
	if conc <= 0 {
		conc = 1
	}
	fs.mds = *sim.NewSemaphore(conc)
	if cl.Prof.OSTs > 0 {
		fs.stats.PerOST = make([]OSTStat, cl.Prof.OSTs)
	}
	for _, n := range cl.Nodes {
		fs.clients = append(fs.clients, newClient(fs, n))
	}
	return fs
}

// ScaleOST installs a permanent service-rate multiplier on one OST
// (fault injection; factors compose multiplicatively).
func (fs *FS) ScaleOST(ost int, factor float64) {
	fs.checkOST(ost)
	if fs.ostMul == nil {
		fs.ostMul = make([]float64, fs.Cl.Prof.OSTs)
		for i := range fs.ostMul {
			fs.ostMul[i] = 1
		}
	}
	fs.ostMul[ost] *= factor
}

// StallOST installs a periodic stall window on one OST: from startSec
// on, the OST serves at factor times its rate for the first stallSec
// of every periodSec. The window is a pure function of virtual time,
// so faulted runs stay exactly as reproducible as clean ones.
func (fs *FS) StallOST(ost int, startSec, periodSec, stallSec, factor float64) {
	fs.checkOST(ost)
	if periodSec <= 0 || stallSec <= 0 {
		panic("lustre: stall window needs a positive period and span")
	}
	fs.ostStalls = append(fs.ostStalls, ostStall{
		ost: ost, startSec: startSec, periodSec: periodSec, stallSec: stallSec, factor: factor,
	})
}

func (fs *FS) checkOST(ost int) {
	if ost < 0 || ost >= fs.Cl.Prof.OSTs {
		panic(fmt.Sprintf("lustre: OST %d out of range [0,%d)", ost, fs.Cl.Prof.OSTs))
	}
}

// SetMDSConcurrency rebuilds the metadata semaphore with n permits
// (fault injection; must be called before the workload launches).
func (fs *FS) SetMDSConcurrency(n int) {
	if n <= 0 {
		n = 1
	}
	fs.mds = *sim.NewSemaphore(n)
}

// DegradeMDS adds a lock-revocation stall tail to every metadata-path
// operation: with probability prob an op stalls an extra
// Uniform(loSec, hiSec) seconds while holding its service slot.
func (fs *FS) DegradeMDS(prob, loSec, hiSec float64) {
	fs.mdsDeg = &mdsDegrade{prob: prob, loSec: loSec, hiSec: hiSec}
}

// ostCapMBps returns the per-stream service-rate ceiling imposed by
// degraded OSTs on the extent [offset, offset+length) at time t: the
// minimum over touched OSTs of factor x OSTServiceMBps, or +Inf when
// every touched OST is clean. Healthy OSTs impose no cap — their
// service rate is already folded into the fabric's aggregate capacity.
func (fs *FS) ostCapMBps(f *File, offset, length int64, t sim.Time) float64 {
	if fs.ostMul == nil && len(fs.ostStalls) == 0 {
		return math.Inf(1)
	}
	cap := math.Inf(1)
	fs.ostScratch = f.Layout.ForEachOSTBuf(fs.ostScratch, offset, length, fs.Cl.Prof.OSTs, func(ost int, _ float64) {
		factor := 1.0
		if fs.ostMul != nil {
			factor = fs.ostMul[ost]
		}
		for _, s := range fs.ostStalls {
			if s.ost == ost && float64(t) >= s.startSec &&
				math.Mod(float64(t)-s.startSec, s.periodSec) < s.stallSec {
				factor *= s.factor
			}
		}
		if factor < 1 {
			if c := factor * fs.Cl.Prof.OSTServiceMBps; c < cap {
				cap = c
			}
		}
	})
	return cap
}

// noteOSTService attributes one completed data stream to the OSTs its
// extent touches, weighted by stripe share — the server-side per-OST
// observation surfaced through Stats.PerOST. nodeID identifies the
// issuing client's node, so a multi-tenant mount can attribute the
// same observation to the owning tenant's usage bucket.
func (fs *FS) noteOSTService(nodeID int, f *File, offset, length int64, demandMB float64, dur sim.Duration) {
	if len(fs.stats.PerOST) == 0 || dur <= 0 {
		return
	}
	fs.telStreamS.Observe(float64(dur))
	tu := fs.tenantUsageFor(nodeID)
	fs.ostScratch = f.Layout.ForEachOSTBuf(fs.ostScratch, offset, length, len(fs.stats.PerOST), func(ost int, frac float64) {
		st := &fs.stats.PerOST[ost]
		st.Streams++
		st.MB += demandMB * frac
		st.Seconds += float64(dur) * frac
		if tu != nil {
			ot := &tu.PerOST[ost]
			ot.Streams++
			ot.MB += demandMB * frac
			ot.Seconds += float64(dur) * frac
		}
	})
}

// File is a file in the simulated namespace. Contents are not stored;
// only the extent (size) matters to the model.
type File struct {
	Name   string
	Size   int64
	Layout Layout

	// activeWriters counts write jobs queued or in flight against
	// this file; extent-lock contention is a per-file phenomenon
	// (writers of different files never share locks).
	activeWriters int
}

// ActiveWriters reports this file's queued or in-flight write jobs.
func (f *File) ActiveWriters() int { return f.activeWriters }

// Create creates (or truncates) a file with the mount's default
// layout: 1 MB stripes over DefaultStripeCount OSTs (all of them when
// zero), starting from a round-robin-assigned OST.
func (fs *FS) Create(name string) *File {
	count := fs.DefaultStripeCount
	if count <= 0 || count > fs.Cl.Prof.OSTs {
		count = fs.Cl.Prof.OSTs
	}
	f := &File{
		Name: name,
		Layout: Layout{
			StripeBytes: int64(fs.Cl.Prof.StripeMB * 1e6),
			Count:       count,
			OSTOffset:   fs.nextOST,
		},
	}
	if fs.Cl.Prof.OSTs > 0 {
		fs.nextOST = (fs.nextOST + 1) % fs.Cl.Prof.OSTs
	}
	fs.files[name] = f
	return f
}

// Lookup returns the named file, or nil if it does not exist.
func (fs *FS) Lookup(name string) *File { return fs.files[name] }

// ClientFor returns the client on the given node.
func (fs *FS) ClientFor(n *cluster.Node) *Client { return fs.clients[n.ID] }

// AddExternalClient mounts a client on a node created after the file
// system — a competing tenant's injection node from
// cluster.NewExternalNode. The node must be the next unmounted one,
// so client and node IDs stay aligned.
func (fs *FS) AddExternalClient(n *cluster.Node) *Client {
	if n.ID != len(fs.clients) {
		panic(fmt.Sprintf("lustre: external client for node %d but %d clients mounted", n.ID, len(fs.clients)))
	}
	c := newClient(fs, n)
	fs.clients = append(fs.clients, c)
	return c
}

// ActiveWriters reports the file-system-wide count of queued or
// in-flight write jobs.
func (fs *FS) ActiveWriters() int { return fs.activeWriteJobs }

// writersPerOST is the contention density used by the extent-lock
// cap: the FILE's concurrent writers spread over its stripe targets.
// Writers of different files never contend for extent locks, so a
// file-per-process workload sees no penalty at any scale.
func (fs *FS) writersPerOST(f *File) float64 {
	osts := f.Layout.Count
	if osts <= 0 {
		osts = fs.Cl.Prof.OSTs
	}
	w := float64(f.activeWriters) / float64(osts)
	if w < 1 {
		return 1
	}
	return w
}

// writeCapMBps returns the per-stream rate cap for one write job of
// regionMB megabytes. Contention grows with concurrent writers per
// OST; small interleaved regions are penalized because their extent
// locks bounce between clients; unaligned writes additionally pay the
// partial-stripe penalty.
func (fs *FS) writeCapMBps(f *File, regionMB float64, aligned bool) float64 {
	prof := fs.Cl.Prof
	w := fs.writersPerOST(f)
	cap := prof.LockCapMBps * (regionMB / prof.StripeMB) / math.Pow(w, prof.LockGamma)
	if !aligned {
		cap /= prof.UnalignedPenalty
	}
	return cap
}

// conflictDelay draws the extent-lock conflict stall for a write with
// the given number of partial-stripe RPCs: zero for aligned writes,
// and usually zero otherwise; with the contention-scaled probability,
// a per-partial-RPC stall (the Figure 6(f) bulge).
func (fs *FS) conflictDelay(f *File, partialRPCs int) sim.Duration {
	if partialRPCs <= 0 {
		return 0
	}
	prof := fs.Cl.Prof
	w := fs.writersPerOST(f)
	p := minf(prof.ConflictProbMax, prof.ConflictProbPerWriterPerOST*w*w)
	if p <= 0 || !fs.rng.Bernoulli(p) {
		return 0
	}
	fs.stats.Conflicts++
	return sim.Duration(float64(partialRPCs) * fs.rng.Uniform(prof.ConflictDelayLoSec, prof.ConflictDelayHiSec))
}

// MDSOp performs one serialized metadata-path operation (file open,
// close, attribute update). Operations queue behind each other
// file-system-wide.
func (fs *FS) MDSOp(p *sim.Proc, payloadBytes int64) sim.Duration {
	return fs.mdsOp(p, payloadBytes, 0)
}

func (fs *FS) mdsOp(p *sim.Proc, payloadBytes int64, extraSlow sim.Duration) sim.Duration {
	fs.stats.MDSOps++
	if d := fs.mdsDeg; d != nil && d.prob > 0 && fs.rng.Bernoulli(d.prob) {
		// Brownout: the op holds its service slot through an elevated
		// lock-revocation stall, starving everything queued behind it.
		extraSlow += sim.Duration(fs.rng.Uniform(d.loSec, d.hiSec))
		fs.stats.MDSSlowOps++
	}
	start := p.Now()
	fs.mds.Acquire(p)
	prof := fs.Cl.Prof
	lat := prof.MDSBaseLatency
	if payloadBytes > 0 && prof.SmallIORateMBps > 0 {
		lat += sim.Duration(mb(payloadBytes) / prof.SmallIORateMBps)
	}
	lat *= sim.Duration(fs.Cl.RNG.Lognormal(0, 0.25))
	p.Sleep(lat + extraSlow)
	fs.mds.Release()
	return p.Now() - start
}

// SmallWrite writes payloadBytes at offset through the metadata/small-
// I/O path (serialized), extending the file. Used for sub-threshold
// writes such as HDF5 metadata. Beyond the base latency, the op can
// hit a slow lock-revocation stall; page-aligned metadata blocks
// (whole 4 kB pages at page offsets, as an alignment-tuned HDF5
// emits) avoid the read-modify-write lock bounce and see the stall
// probability and span damped by AlignedMetaRelief.
func (fs *FS) SmallWrite(p *sim.Proc, f *File, offset, payloadBytes int64) sim.Duration {
	const page = 4096
	prof := fs.Cl.Prof
	slowProb := prof.MDSSlowProb
	lo, hi := prof.MDSSlowLoSec, prof.MDSSlowHiSec
	if offset%page == 0 && payloadBytes%page == 0 && prof.AlignedMetaRelief > 0 {
		slowProb *= prof.AlignedMetaRelief
		hi = lo + (hi-lo)*prof.AlignedMetaRelief
	}
	var extra sim.Duration
	if slowProb > 0 && fs.rng.Bernoulli(slowProb) {
		extra = sim.Duration(fs.rng.Uniform(lo, hi))
		fs.stats.MDSSlowOps++
	}
	fs.stats.SmallWrites++
	d := fs.mdsOp(p, payloadBytes, extra)
	f.extend(offset + payloadBytes)
	return d
}

func (f *File) extend(to int64) {
	if to > f.Size {
		f.Size = to
	}
}

func (f *File) String() string {
	return fmt.Sprintf("%s(%d bytes, stripe=%d x %d)", f.Name, f.Size, f.Layout.StripeBytes, f.Layout.Count)
}
