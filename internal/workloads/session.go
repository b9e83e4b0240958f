package workloads

import (
	"fmt"

	"ensembleio/internal/cluster"
	"ensembleio/internal/faults"
	"ensembleio/internal/ipmio"
	"ensembleio/internal/lustre"
	"ensembleio/internal/mpi"
	"ensembleio/internal/posixio"
	"ensembleio/internal/sim"
	"ensembleio/internal/telemetry"
	"ensembleio/internal/tracefmt"
)

// Session is the one run path: a platform — engine, cluster, fabric,
// file system, POSIX layer, and the telemetry sink — that one or more
// jobs run on with staggered starts, so every job contends for the
// same fabric, OSTs, and metadata service. A solo run (Program.Run) is
// a Session with one unnamed job; internal/tenancy attaches one named
// job per tenant.
type Session struct {
	eng *sim.Engine
	cl  *cluster.Cluster
	fs  *lustre.FS
	sys *posixio.System
	tel *telemetry.Sink

	scenario *faults.Scenario

	// pending counts attached jobs whose ranks have not all finished;
	// the background-load injector stops only when it reaches zero, so
	// a tenant finishing early does not silence the contention its
	// neighbors still see.
	pending int

	jobs []*Job
}

// Job is one program attached to a Session: its MPI world and
// collector and, when named, its tenant identity and lustre accounting
// bucket on the shared platform.
type Job struct {
	s    *Session
	prog *Program
	seed int64
	w    *mpi.World
	col  *ipmio.Collector

	// Tenant identity: name tags the job's counters and (with tag,
	// "<name>/") its spans, tenantIdx is its lustre accounting bucket,
	// startAt is its staggered start. All zero on an unnamed job.
	tenant    string
	tag       string
	tenantIdx int
	startAt   sim.Time

	finished int
	started  sim.Time
	wall     sim.Time

	// Fast-forward window samples at the job's start and last-rank
	// finish, so a session can report per-tenant fast-forwarded
	// fractions rather than only the global one.
	ffStart, ffEnd       float64
	jumpsStart, jumpsEnd uint64
}

// Finish assembles the job's run artifact after Session.Run:
// collector, absolute last-rank finish time (Wall), and the mount's
// final stats. Telemetry is folded once for the whole session
// (Session.Fold).
func (j *Job) Finish() *Run {
	return &Run{
		Name:         j.prog.spec.Name,
		Tasks:        j.prog.spec.Tasks,
		Collector:    j.col,
		Wall:         j.wall,
		TotalBytes:   j.prog.total,
		FSStats:      j.s.fs.Stats(),
		CoresPerNode: j.s.cl.Prof.CoresPerNode,
	}
}

// StartSec is the virtual time the job's ranks actually launched (its
// staggered start offset).
func (j *Job) StartSec() float64 { return float64(j.started) }

// EndSec is the virtual time the job's last rank finished.
func (j *Job) EndSec() float64 { return float64(j.wall) }

// Usage snapshots a named job's per-tenant slice of the server-side
// view (an unnamed job has no accounting bucket).
func (j *Job) Usage() lustre.TenantUsage { return j.s.fs.TenantUsage(j.tenantIdx) }

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

// NewSession builds the shared platform and installs the fault
// scenario (if any) before any job launches. The scenario is retained
// so the fold can derive its fault windows. Attach jobs with AddJob,
// then Run.
func NewSession(cfg SessionConfig) *Session {
	eng := sim.NewEngine()
	cl := cluster.New(eng, cfg.Machine, cfg.Nodes, cfg.Seed)
	var tel *telemetry.Sink
	if cfg.Telemetry {
		tel = telemetry.New()
	}
	// Instrument before mounting lustre and building the MPI worlds:
	// both cache their metric handles from cl.Tel at construction. A
	// nil sink hands out nil handles, which no-op.
	cl.Instrument(tel)
	fs := lustre.NewFS(cl)
	s := &Session{eng: eng, cl: cl, fs: fs, sys: posixio.NewSystem(fs), tel: tel}
	fs.DefaultStripeCount = cfg.StripeCount
	if cfg.Faults != nil {
		if err := cfg.Faults.Apply(cl, fs); err != nil {
			panic(err)
		}
		s.scenario = cfg.Faults
	}
	return s
}

// TenantJobConfig wires one job onto the session.
type TenantJobConfig struct {
	// Name tags a tenant's spans ("<name>/...") and counters
	// ("tenant.<name>.*") in the merged telemetry. An unnamed job (a
	// solo run) gets no tenant bucket, counters, or span prefix.
	Name string
	// NodeBase is the first cluster node of the job's block: rank i
	// lands on node NodeBase + i/CoresPerNode. Tenants get disjoint
	// node ranges.
	NodeBase int
	// StartSec is the job's staggered start offset in virtual time.
	StartSec float64
	// Mode selects trace and/or profile collection (default TraceMode).
	Mode ipmio.Mode
	// Seed drives the job's compute-imbalance draws (a solo baseline
	// passing the same seed reproduces the same compute times).
	Seed int64
}

// AddJob attaches program p to the session: a world of p's ranks
// block-placed from cfg.NodeBase, a fresh collector pre-sized for p's
// trace, and, for a named job, a lustre accounting bucket. Call in a
// fixed order (tenant index order) — world construction draws
// nothing, but body preparation and the fold follow attachment order.
func (s *Session) AddJob(p *Program, cfg TenantJobConfig) *Job {
	if cfg.Mode == 0 {
		cfg.Mode = ipmio.TraceMode
	}
	j := &Job{s: s, prog: p, seed: cfg.Seed, startAt: sim.Time(cfg.StartSec)}
	mcfg := mpi.Config{NodeBase: cfg.NodeBase}
	if cfg.Name != "" {
		nNodes := (p.ranks + s.cl.Prof.CoresPerNode - 1) / s.cl.Prof.CoresPerNode
		j.tenant, j.tag = cfg.Name, cfg.Name+"/"
		j.tenantIdx = s.fs.RegisterTenant(cfg.NodeBase, nNodes)
		mcfg.TelPrefix = "tenant." + cfg.Name + "."
	}
	s.pending++
	j.w = mpi.NewWorld(s.eng, s.cl, p.ranks, mcfg)
	j.col = ipmio.NewCollector(cfg.Mode)
	j.col.Reserve(p.events)
	s.jobs = append(s.jobs, j)
	return j
}

// Run prepares every job's body in attachment order (communicators,
// imbalance draws), spawns each at its start offset, then drives the
// shared engine until every job's event activity drains.
func (s *Session) Run() {
	bodies := make([]func(r *mpi.Rank, tr *ipmio.Tracer), len(s.jobs))
	for i, j := range s.jobs {
		bodies[i] = j.prog.body(j)
	}
	for i, j := range s.jobs {
		j.spawn(bodies[i])
	}
	s.eng.Run()
}

// spawn launches body on every rank at the job's start offset without
// driving the engine. The makespan and the per-job fast-forward window
// are tracked here; each rank reports its finish through rankDone. The
// ranks' I/O contexts and tracers are one slice each per job.
func (j *Job) spawn(body func(r *mpi.Rank, tr *ipmio.Tracer)) {
	eng := j.s.eng
	run := func() {
		j.started = eng.Now()
		j.ffStart = eng.FastForwardSeconds()
		j.jumpsStart = eng.FastForwardJumps()
		tasks := make([]posixio.Task, j.w.Size())
		tracers := make([]ipmio.Tracer, j.w.Size())
		j.w.Launch(func(r *mpi.Rank) {
			task, tr := &tasks[r.ID], &tracers[r.ID]
			j.s.sys.InitTask(task, r.ID, r.Node, r.T)
			tr.Init(task, j.col)
			body(r, tr)
		})
	}
	if j.startAt > 0 {
		eng.At(j.startAt, run)
	} else {
		run()
	}
}

// rankDone records that rank r finished the job's body and ends its
// task; the session is notified when the last rank completes.
func (j *Job) rankDone(r *mpi.Rank) {
	j.finished++
	if now := r.T.Now(); now > j.wall {
		j.wall = now
	}
	if j.finished == j.w.Size() {
		j.ffEnd = j.s.eng.FastForwardSeconds()
		j.jumpsEnd = j.s.eng.FastForwardJumps()
		j.s.jobDone()
	}
	r.Exit()
}

// jobDone records one attached job's completion (its last rank
// finished) and stops the background-load injectors once every
// attached job is done, so the event queue can drain.
func (s *Session) jobDone() {
	s.pending--
	if s.pending == 0 {
		s.cl.StopBackground()
	}
}

// Fold assembles the session's merged telemetry after Run: the
// platform-wide counters (foldCounters), then a per-tenant
// section for each named job in attachment order — window,
// fast-forward share, data-path totals, per-OST byte/stall/busy
// counters — and the span stream in a fixed order: tenant windows,
// phases, fault windows, then each job's trace as an I/O track whose
// io spans the writers render, each tenant's tagged "<name>/". With
// one unnamed job this is exactly a solo run's stream: counters,
// phases, fault windows, I/O calls. Every piece is a pure function of
// the simulated run, so the snapshot is byte-stable across GOMAXPROCS.
func (s *Session) Fold() (*telemetry.Snapshot, tracefmt.SpanView) {
	tel := s.tel
	if tel == nil {
		return nil, tracefmt.SpanView{}
	}

	// Session wall: the last job's finish.
	wall := 0.0
	for _, j := range s.jobs {
		if e := float64(j.wall); e > wall {
			wall = e
		}
	}

	s.foldCounters(wall)

	for _, j := range s.jobs {
		if j.tenant == "" {
			continue
		}
		prefix := "tenant." + j.tenant + "."
		start, end := float64(j.started), float64(j.wall)
		tel.Counter(prefix + "start_s").Add(start)
		tel.Counter(prefix + "virtual_seconds").Add(end - start)
		if ff := j.ffEnd - j.ffStart; ff > 0 {
			tel.Counter(prefix + "ff_seconds").Add(ff)
			tel.Counter(prefix + "ff_jumps").Add(float64(j.jumpsEnd - j.jumpsStart))
		}
		u := s.fs.TenantUsage(j.tenantIdx)
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
		if endStalls := s.scenario.StallSeconds(end, len(u.PerOST)); endStalls != nil {
			tenantStalls = endStalls
			if startStalls := s.scenario.StallSeconds(start, len(u.PerOST)); startStalls != nil {
				for i := range tenantStalls {
					tenantStalls[i] -= startStalls[i]
				}
			}
		}
		foldPerOST(tel, prefix, u.PerOST, tenantStalls)
	}

	for _, j := range s.jobs {
		if j.tenant != "" {
			tel.Span("tenant", j.tenant, -1, float64(j.started), float64(j.wall))
		}
	}
	for _, j := range s.jobs {
		marks := j.col.Marks
		for i, m := range marks {
			end := float64(j.wall)
			if i+1 < len(marks) {
				end = float64(marks[i+1].T)
			}
			tel.Span("phase", j.tag+m.Name, -1, float64(m.T), end)
		}
	}
	for _, w := range s.scenario.Windows(wall) {
		tel.Span("fault", w.Label, -1, w.T0, w.T1)
	}
	spans := tracefmt.SpanView{Scoped: tel.Spans()}
	for _, j := range s.jobs {
		spans.IO = append(spans.IO, tracefmt.IOTrack{Tag: j.tag, Events: j.col.Events})
	}
	return tel.Snapshot(), spans
}

// foldCounters writes the platform-wide telemetry section: engine
// work and fast-forward counters over wall virtual seconds, the
// file-system-wide lustre counters, and the per-OST block with the
// fault scenario's stall exposure (nil scenario -> no stalls).
// Snapshots sort counters by name, so where a fold calls this does not
// move a byte.
func (s *Session) foldCounters(wall float64) {
	tel, eng, st := s.tel, s.eng, s.fs.Stats()
	tel.Counter("sim.events_popped").Add(float64(eng.EventsPopped()))
	tel.Counter("sim.events_scheduled").Add(float64(eng.EventsScheduled()))
	tel.Gauge("sim.heap_high_water").Set(float64(eng.HeapHighWater()))

	// Fast-forward accounting: virtual seconds the fabric crossed in
	// single analytic jumps. The jumps are a pure function of the
	// simulated schedule, so these counters are safe to serialize and
	// tracestat can print the ratio against sim.virtual_seconds.
	tel.Counter("sim.virtual_seconds").Add(wall)
	if ff := eng.FastForwardSeconds(); ff > 0 {
		tel.Counter("sim.ff_seconds").Add(ff)
		tel.Counter("sim.ff_jumps").Add(float64(eng.FastForwardJumps()))
	}

	for _, c := range []struct {
		name string
		v    float64
	}{
		{"lustre.write_jobs", float64(st.WriteJobs)},
		{"lustre.write_mb", st.WriteMB},
		{"lustre.read_calls", float64(st.ReadCalls)},
		{"lustre.read_mb", st.ReadMB},
		{"lustre.absorbed_mb", st.AbsorbedMB},
		{"lustre.drain_chunks", float64(st.DrainChunks)},
		{"lustre.conflicts", float64(st.Conflicts)},
		{"lustre.luck_capped", float64(st.LuckCapped)},
		{"lustre.mds_ops", float64(st.MDSOps)},
		{"lustre.mds_slow_ops", float64(st.MDSSlowOps)},
		{"lustre.small_writes", float64(st.SmallWrites)},
	} {
		if c.v != 0 {
			tel.Counter(c.name).Add(c.v)
		}
	}
	foldPerOST(tel, "lustre.", st.PerOST, s.scenario.StallSeconds(wall, len(st.PerOST)))
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
