// Package faults is the deterministic fault-injection layer: it
// composes degradation scenarios — slow or flaky OSTs, degraded node
// links, MDS brownouts, background-load bursts — onto a freshly built
// machine and mounted file system before the workload launches.
//
// Every fault is deterministic in virtual time: stall windows and
// burst schedules are pure functions of the clock, and the only
// randomness (the brownout's stall draws) comes from the run's seeded
// RNG — so a faulted run is exactly as reproducible as a clean one.
// Each injected fault doubles as a labeled fixture for the ensemble
// statistics stack: internal/analysis recognizes its signature from
// the event distribution alone (the fault-to-signature table is
// DESIGN.md §9).
package faults

import (
	"fmt"

	"ensembleio/internal/cluster"
	"ensembleio/internal/lustre"
	"ensembleio/internal/sim"
)

// Fault is one injected degradation.
type Fault interface {
	// Kind is the stable type tag used in scenario JSON.
	Kind() string
	// Validate checks the machine-independent parameter rules.
	Validate() error
	// Apply installs the fault on an instantiated machine and mounted
	// file system. It must run before the workload launches.
	Apply(m *cluster.Machine, fs *lustre.FS) error
}

// Fault kind tags (the "type" field of scenario JSON entries).
const (
	KindSlowOST          = "slow-ost"
	KindFlakyOST         = "flaky-ost"
	KindSlowNodeLink     = "slow-node-link"
	KindMDSBrownout      = "mds-brownout"
	KindBackgroundBursts = "background-bursts"
)

// SlowOST permanently degrades one OST: streams touching it are
// ceilinged at Factor times the OST's service rate for the whole run.
type SlowOST struct {
	OST    int     `json:"ost"`
	Factor float64 `json:"factor"` // service-rate multiplier in (0,1)
}

// Kind implements Fault.
func (f *SlowOST) Kind() string { return KindSlowOST }

// Validate implements Fault.
func (f *SlowOST) Validate() error {
	if f.OST < 0 {
		return fmt.Errorf("ost must be non-negative, got %d", f.OST)
	}
	if f.Factor <= 0 || f.Factor >= 1 {
		return fmt.Errorf("factor must be in (0,1), got %g", f.Factor)
	}
	return nil
}

// Apply implements Fault.
func (f *SlowOST) Apply(m *cluster.Machine, fs *lustre.FS) error {
	if f.OST >= m.Prof.OSTs {
		return fmt.Errorf("ost %d out of range: machine has %d OSTs", f.OST, m.Prof.OSTs)
	}
	fs.ScaleOST(f.OST, f.Factor)
	return nil
}

// FlakyOST degrades one OST intermittently: from StartSec on, the OST
// serves at Factor times its rate for the first StallSec of every
// PeriodSec — a periodic stall window in virtual time.
type FlakyOST struct {
	OST       int     `json:"ost"`
	StartSec  float64 `json:"start_sec"`
	PeriodSec float64 `json:"period_sec"`
	StallSec  float64 `json:"stall_sec"`
	// Factor is the in-window service-rate multiplier (default 0.02,
	// a near-stall).
	Factor float64 `json:"factor,omitempty"`
}

// Kind implements Fault.
func (f *FlakyOST) Kind() string { return KindFlakyOST }

// Validate implements Fault.
func (f *FlakyOST) Validate() error {
	if f.OST < 0 {
		return fmt.Errorf("ost must be non-negative, got %d", f.OST)
	}
	if f.StartSec < 0 {
		return fmt.Errorf("start_sec must be non-negative, got %g", f.StartSec)
	}
	if f.PeriodSec <= 0 {
		return fmt.Errorf("period_sec must be positive, got %g", f.PeriodSec)
	}
	if f.StallSec <= 0 || f.StallSec > f.PeriodSec {
		return fmt.Errorf("stall_sec must be in (0, period_sec], got %g", f.StallSec)
	}
	if f.Factor < 0 || f.Factor >= 1 {
		return fmt.Errorf("factor must be in (0,1) or 0 for the default, got %g", f.Factor)
	}
	return nil
}

// Apply implements Fault.
func (f *FlakyOST) Apply(m *cluster.Machine, fs *lustre.FS) error {
	if f.OST >= m.Prof.OSTs {
		return fmt.Errorf("ost %d out of range: machine has %d OSTs", f.OST, m.Prof.OSTs)
	}
	factor := f.Factor
	if factor == 0 {
		factor = 0.02
	}
	fs.StallOST(f.OST, f.StartSec, f.PeriodSec, f.StallSec, factor)
	return nil
}

// SlowNodeLink degrades one compute node's fabric link to Factor times
// its provisioned bandwidth — a flaky HSN cable or a congested router.
type SlowNodeLink struct {
	Node   int     `json:"node"`
	Factor float64 `json:"factor"` // link-bandwidth multiplier in (0,1)
}

// Kind implements Fault.
func (f *SlowNodeLink) Kind() string { return KindSlowNodeLink }

// Validate implements Fault.
func (f *SlowNodeLink) Validate() error {
	if f.Node < 0 {
		return fmt.Errorf("node must be non-negative, got %d", f.Node)
	}
	if f.Factor <= 0 || f.Factor >= 1 {
		return fmt.Errorf("factor must be in (0,1), got %g", f.Factor)
	}
	return nil
}

// Apply implements Fault.
func (f *SlowNodeLink) Apply(m *cluster.Machine, _ *lustre.FS) error {
	if f.Node >= len(m.Nodes) {
		return fmt.Errorf("node %d out of range: machine has %d nodes", f.Node, len(m.Nodes))
	}
	m.Nodes[f.Node].Port.SetCapMBps(m.Prof.NodeLinkMBps * f.Factor)
	return nil
}

// MDSBrownout degrades the metadata service: Concurrency (when
// positive) replaces the MDS request parallelism, and SlowProb (when
// positive) makes every metadata op stall an extra
// Uniform(SlowLoSec, SlowHiSec) seconds with that probability while
// holding its service slot — an elevated lock-revocation tail.
type MDSBrownout struct {
	Concurrency int     `json:"concurrency,omitempty"`
	SlowProb    float64 `json:"slow_prob,omitempty"`
	SlowLoSec   float64 `json:"slow_lo_sec,omitempty"`
	SlowHiSec   float64 `json:"slow_hi_sec,omitempty"`
}

// Kind implements Fault.
func (f *MDSBrownout) Kind() string { return KindMDSBrownout }

// Validate implements Fault.
func (f *MDSBrownout) Validate() error {
	if f.Concurrency < 0 {
		return fmt.Errorf("concurrency must be non-negative, got %d", f.Concurrency)
	}
	if f.SlowProb < 0 || f.SlowProb > 1 {
		return fmt.Errorf("slow_prob must be in [0,1], got %g", f.SlowProb)
	}
	if f.SlowLoSec < 0 || f.SlowHiSec < f.SlowLoSec {
		return fmt.Errorf("need 0 <= slow_lo_sec <= slow_hi_sec, got [%g, %g]", f.SlowLoSec, f.SlowHiSec)
	}
	if f.Concurrency == 0 && f.SlowProb == 0 {
		return fmt.Errorf("a brownout needs concurrency and/or slow_prob set")
	}
	return nil
}

// Apply implements Fault.
func (f *MDSBrownout) Apply(_ *cluster.Machine, fs *lustre.FS) error {
	if f.Concurrency > 0 {
		fs.SetMDSConcurrency(f.Concurrency)
	}
	if f.SlowProb > 0 {
		fs.DegradeMDS(f.SlowProb, f.SlowLoSec, f.SlowHiSec)
	}
	return nil
}

// BackgroundBursts injects deterministic competing load: from StartSec
// on, bursts consuming up to MBps of the aggregate for OnSec seconds,
// separated by OffSec of silence — another job's checkpoint cycle.
//
// The bursts are a real competing tenant, not a synthetic fabric
// stream: Apply mounts a lustre client on an external injection node
// and drives each burst through the ordinary write path (write queue,
// flusher, per-OST attribution), so the contention the foreground
// application sees — and the server-side counters operators would
// read — both come from the same mechanism a co-scheduled neighbor
// (internal/tenancy) exercises.
type BackgroundBursts struct {
	MBps     float64 `json:"mbps"`
	OnSec    float64 `json:"on_sec"`
	OffSec   float64 `json:"off_sec"`
	StartSec float64 `json:"start_sec,omitempty"`
}

// Kind implements Fault.
func (f *BackgroundBursts) Kind() string { return KindBackgroundBursts }

// Validate implements Fault.
func (f *BackgroundBursts) Validate() error {
	if f.MBps <= 0 {
		return fmt.Errorf("mbps must be positive, got %g", f.MBps)
	}
	if f.OnSec <= 0 {
		return fmt.Errorf("on_sec must be positive, got %g", f.OnSec)
	}
	if f.OffSec < 0 {
		return fmt.Errorf("off_sec must be non-negative, got %g", f.OffSec)
	}
	if f.StartSec < 0 {
		return fmt.Errorf("start_sec must be non-negative, got %g", f.StartSec)
	}
	return nil
}

// Apply implements Fault. The competing tenant writes MBps*OnSec
// megabytes per burst through a real lustre client on an external
// injection node, pacing itself to the absolute burst schedule
// (StartSec + k*(OnSec+OffSec)) so the active windows match what
// Scenario.Windows derives from the parameters. The injector exits
// once the foreground workload finishes (BackgroundStopped), letting
// the event queue drain.
func (f *BackgroundBursts) Apply(m *cluster.Machine, fs *lustre.FS) error {
	mbps := f.MBps
	agg := m.Prof.EffectiveAggregateMBps()
	if mbps > 0.95*agg {
		mbps = 0.95 * agg
	}
	// Weight chosen like the stochastic background port's: heavy enough
	// that the tenant's stream claims ~mbps even when every application
	// node is pushing. The port is additionally rate-capped at mbps so
	// an idle fabric never lets a burst finish early.
	w := mbps / (agg - mbps) * float64(len(m.Nodes))
	node := m.NewExternalNode(mbps, w)
	client := fs.AddExternalClient(node)

	// The tenant's checkpoint file stripes over every OST regardless of
	// the foreground mount default — a neighbor's striping is its own.
	saved := fs.DefaultStripeCount
	fs.DefaultStripeCount = 0
	file := fs.Create("/scratch/.bg-burst-tenant")
	fs.DefaultStripeCount = saved

	// Stripe-aligned burst extents: whole megabytes, so each burst is
	// one aligned streaming write with no partial-RPC conflict term.
	burstBytes := int64(mbps*f.OnSec) * 1e6
	if burstBytes < 1e6 {
		burstBytes = 1e6
	}
	period := f.OnSec + f.OffSec
	// The tenant is an event chain, not a process of the simulated
	// system: it sleeps to StartSec, then writes one burst per period
	// until the background stops, on a task of its own that never
	// counts toward deadlock detection.
	t := sim.NewTask(m.Eng, "bg-burst-tenant")
	q := &lustre.Req{T: t}
	var offset int64
	k := 0
	var burst, wrote func()
	burst = func() {
		if !m.BackgroundStopped() {
			client.Write(q, file, offset, burstBytes, wrote)
		}
	}
	wrote = func() {
		offset += burstBytes
		k++
		next := sim.Time(f.StartSec + float64(k)*period)
		if now := m.Eng.Now(); next > now {
			t.Sleep(next-now, burst)
			return
		}
		burst()
	}
	m.Eng.At(m.Eng.Now(), func() { t.Sleep(sim.Duration(f.StartSec), burst) })
	return nil
}
