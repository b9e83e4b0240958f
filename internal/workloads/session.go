package workloads

import (
	"fmt"

	"ensembleio/internal/cluster"
	"ensembleio/internal/faults"
	"ensembleio/internal/ipmio"
	"ensembleio/internal/lustre"
	"ensembleio/internal/mpi"
	"ensembleio/internal/sim"
	"ensembleio/internal/telemetry"
)

// Session is the multi-tenant face of the platform wiring: one shared
// engine/cluster/lustre/fabric instance that several jobs — tenants —
// run on concurrently with staggered starts. internal/tenancy drives
// it; it lives here so tenants reuse the exact job plumbing (tracer
// construction, makespan tracking, fold conventions) the solo path
// uses.
type Session struct {
	pl *platform
}

// Job is one simulated job: its MPI world and collector, plus, on a
// Session (AddJob), its tenant identity and lustre accounting bucket
// on the shared platform.
type Job struct {
	j *job
}

// Spawn launches body on every rank at the job's start offset without
// driving the engine. The session spawns every tenant, then calls
// Session.Run once.
func (J *Job) Spawn(body func(r *mpi.Rank, tr *ipmio.Tracer)) { J.j.spawn(body) }

// FinishTenant assembles a tenant's run artifact after Session.Run:
// collector, absolute last-rank finish time (Wall), and the shared
// mount's final stats. It folds no telemetry — the session folds one
// merged stream for all tenants (Session.Fold). tasks is the
// workload's logical task count and totalBytes its logical data
// volume.
func (J *Job) FinishTenant(name string, tasks int, totalBytes int64) *Run {
	return &Run{
		Name:         name,
		Tasks:        tasks,
		Collector:    J.j.col,
		Wall:         J.j.wall,
		TotalBytes:   totalBytes,
		FSStats:      J.j.fs.Stats(),
		CoresPerNode: J.j.cl.Prof.CoresPerNode,
	}
}

// StartSec is the virtual time the job's ranks actually launched (its
// staggered start offset).
func (J *Job) StartSec() float64 { return float64(J.j.started) }

// EndSec is the virtual time the job's last rank finished.
func (J *Job) EndSec() float64 { return float64(J.j.wall) }

// Usage snapshots the job's per-tenant slice of the server-side view.
func (J *Job) Usage() lustre.TenantUsage { return J.j.fs.TenantUsage(J.j.tenantIdx) }

// SessionConfig sizes and seeds the shared platform.
type SessionConfig struct {
	Machine cluster.Profile
	// Nodes is the total node count, at least the sum of every
	// tenant's node range.
	Nodes int
	Seed  int64
	// Faults, when non-nil, is the degradation scenario injected into
	// the shared machine before any tenant launches.
	Faults *faults.Scenario
	// Telemetry enables the session's merged metric/span sink.
	Telemetry bool
	// StripeCount is the mount-wide default stripe count for newly
	// created files (0 = stripe over all OSTs). The mount is shared,
	// so striping cannot vary per tenant.
	StripeCount int
}

// NewSession builds the shared platform and applies the fault
// scenario. Add tenants with AddJob, spawn their bodies, then Run.
func NewSession(cfg SessionConfig) *Session {
	pl := newPlatform(cfg.Machine, cfg.Nodes, cfg.Seed, cfg.Telemetry)
	pl.fs.DefaultStripeCount = cfg.StripeCount
	pl.applyFaults(cfg.Faults)
	return &Session{pl: pl}
}

// TenantJobConfig wires one tenant onto the session.
type TenantJobConfig struct {
	// Name tags the tenant's spans ("<name>/...") and counters
	// ("tenant.<name>.*") in the merged telemetry.
	Name string
	// Tasks is the tenant's MPI world size.
	Tasks int
	// NodeBase is the first cluster node of the tenant's block: rank i
	// lands on node NodeBase + i/CoresPerNode. Tenants get disjoint
	// node ranges.
	NodeBase int
	// StartSec is the tenant's staggered start offset in virtual time.
	StartSec float64
	// Mode selects trace and/or profile collection (default TraceMode).
	Mode ipmio.Mode
	// ReserveEvents pre-sizes the tenant's trace buffer (0 skips).
	ReserveEvents int
}

// AddJob attaches a tenant job to the session: a world block-placed on
// the tenant's node range, a fresh collector, and a lustre accounting
// bucket. Call in a fixed order (tenant index order) — world
// construction draws nothing, but span and counter fold order follows
// attachment order.
func (s *Session) AddJob(cfg TenantJobConfig) *Job {
	if cfg.Mode == 0 {
		cfg.Mode = ipmio.TraceMode
	}
	nNodes := (cfg.Tasks + s.pl.cl.Prof.CoresPerNode - 1) / s.pl.cl.Prof.CoresPerNode
	idx := s.pl.fs.RegisterTenant(cfg.NodeBase, nNodes)
	j := s.pl.attach(cfg.Tasks, cfg.Mode, mpi.Config{
		NodeBase:  cfg.NodeBase,
		TelPrefix: "tenant." + cfg.Name + ".",
	})
	j.tenant = cfg.Name
	j.tenantIdx = idx
	j.startAt = sim.Time(cfg.StartSec)
	j.col.Reserve(cfg.ReserveEvents)
	return &Job{j: j}
}

// Run drives the shared engine until every tenant's event activity
// drains. Spawn every tenant first.
func (s *Session) Run() { s.pl.eng.Run() }

// Fold assembles the session's merged telemetry after Run: the
// platform-wide section a solo run folds too (platform.foldCounters),
// then a per-tenant section for each job in attachment order —
// window, fast-forward share, data-path totals, per-OST byte/stall/
// busy counters — and the span stream in a fixed order: tenant
// windows, per-tenant phases, fault windows, per-tenant I/O calls.
// Every piece is a pure function of the simulated run, so the merged
// snapshot is byte-stable across GOMAXPROCS.
func (s *Session) Fold(jobs []*Job) (*telemetry.Snapshot, []telemetry.Span) {
	tel := s.pl.tel
	if !tel.Enabled() {
		return nil, nil
	}

	// Session wall: the last tenant's finish.
	wall := 0.0
	for _, J := range jobs {
		if e := float64(J.j.wall); e > wall {
			wall = e
		}
	}

	st := s.pl.fs.Stats()
	s.pl.foldCounters(wall, &st)

	for _, J := range jobs {
		j := J.j
		prefix := "tenant." + j.tenant + "."
		start, end := float64(j.started), float64(j.wall)
		tel.Counter(prefix + "start_s").Add(start)
		tel.Counter(prefix + "virtual_seconds").Add(end - start)
		if ff := j.ffEnd - j.ffStart; ff > 0 {
			tel.Counter(prefix + "ff_seconds").Add(ff)
			tel.Counter(prefix + "ff_jumps").Add(float64(j.jumpsEnd - j.jumpsStart))
		}
		u := s.pl.fs.TenantUsage(j.tenantIdx)
		for _, c := range []struct {
			name string
			v    float64
		}{
			{"write_jobs", float64(u.WriteJobs)},
			{"write_mb", u.WriteMB},
			{"read_calls", float64(u.ReadCalls)},
			{"read_mb", u.ReadMB},
		} {
			if c.v != 0 {
				tel.Counter(prefix + c.name).Add(c.v)
			}
		}
		// Per-tenant stall exposure: only the stall seconds inside the
		// tenant's own window count against it.
		var tenantStalls []float64
		if endStalls := s.pl.scenario.StallSeconds(end, len(u.PerOST)); endStalls != nil {
			tenantStalls = endStalls
			if startStalls := s.pl.scenario.StallSeconds(start, len(u.PerOST)); startStalls != nil {
				for i := range tenantStalls {
					tenantStalls[i] -= startStalls[i]
				}
			}
		}
		foldPerOST(tel, prefix, u.PerOST, tenantStalls)
	}

	for _, J := range jobs {
		tel.Span("tenant", J.j.tenant, -1, float64(J.j.started), float64(J.j.wall))
	}
	for _, J := range jobs {
		j := J.j
		marks := j.col.Marks
		for i, m := range marks {
			end := float64(j.wall)
			if i+1 < len(marks) {
				end = float64(marks[i+1].T)
			}
			tel.Span("phase", j.tenant+"/"+m.Name, -1, float64(m.T), end)
		}
	}
	s.pl.foldFaultWindows(wall)
	for _, J := range jobs {
		j := J.j
		for i := range j.col.Events {
			e := &j.col.Events[i]
			tel.Span("io", j.tenant+"/"+e.Op.String(), e.Rank, float64(e.Start), float64(e.Start+e.Dur))
		}
	}

	return tel.Snapshot(), tel.Spans()
}

// foldPerOST folds one per-OST stat block under the given name prefix,
// skipping OSTs with no streams and no stall exposure.
func foldPerOST(tel *telemetry.Sink, prefix string, per []lustre.OSTStat, stalls []float64) {
	for i := range per {
		o := &per[i]
		stall := 0.0
		if stalls != nil {
			stall = stalls[i]
		}
		if o.Streams == 0 && stall == 0 {
			continue
		}
		ostPrefix := fmt.Sprintf("%sost%03d.", prefix, i)
		tel.Counter(ostPrefix + "streams").Add(float64(o.Streams))
		tel.Counter(ostPrefix + "mb").Add(o.MB)
		tel.Counter(ostPrefix + "seconds").Add(o.Seconds)
		if stall > 0 {
			tel.Counter(ostPrefix + "stall_s").Add(stall)
		}
	}
}
