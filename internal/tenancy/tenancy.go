// Package tenancy co-schedules several declarative workloads — tenants
// — on one shared simulated platform: one engine, one fabric, one
// lustre mount, one metadata service. Each tenant gets a disjoint node
// block, its own namespaced file tree, a staggered start offset, and a
// per-tenant accounting bucket on the mount, so the merged telemetry
// stream and the per-tenant usage snapshots attribute every byte and
// busy second to the tenant that caused it.
//
// On top of the co-run, Analyze computes LASSi-style interference
// metrics (internal/analysis.Interference): each tenant's solo
// baseline is re-simulated on an identical private platform with the
// same seed and fault scenario, and the co-run/solo slowdown is
// overlap-weighted into a victim/aggressor ranking with shared-OST
// attribution. Both the co-run and the analysis are pure functions of
// the configuration, so every artifact — traces, merged telemetry,
// spans, the interference report JSON — is byte-identical across
// worker counts.
package tenancy

import (
	"fmt"

	"ensembleio/internal/analysis"
	"ensembleio/internal/cluster"
	"ensembleio/internal/faults"
	"ensembleio/internal/ipmio"
	"ensembleio/internal/lustre"
	"ensembleio/internal/telemetry"
	"ensembleio/internal/tracefmt"
	"ensembleio/internal/workloads"
)

// Tenant is one co-scheduled workload instance.
type Tenant struct {
	// Name tags the tenant's counters ("tenant.<name>.*"), spans
	// ("<name>/..."), and report entries. Restricted to
	// [A-Za-z0-9_-]+ so the tags parse unambiguously.
	Name string `json:"name"`
	// Spec is the tenant's declarative workload (see internal/workloads).
	Spec *workloads.Spec `json:"spec"`
	// StartSec staggers the tenant's launch in virtual time.
	StartSec float64 `json:"start_sec,omitempty"`
}

// Config carries the session-wide runtime knobs.
type Config struct {
	Machine cluster.Profile
	// Seed drives the shared platform; tenant i's workload-body draws
	// (and its solo baseline) use Seed+i, so baselines reproduce the
	// co-run's per-tenant randomness exactly.
	Seed int64
	// Faults, when non-nil, is the degradation scenario injected into
	// the shared machine — and into every solo baseline, so slowdowns
	// isolate tenant interference from injected degradation.
	Faults *faults.Scenario
	// Mode selects trace and/or profile collection per tenant
	// (default ipmio.TraceMode; the interference activity bins need
	// traces).
	Mode ipmio.Mode
	// Telemetry enables the merged session metric/span sink.
	Telemetry bool
}

// TenantResult is one tenant's share of a finished co-run.
type TenantResult struct {
	Name string
	// StartSec/EndSec delimit the tenant's window in the co-run's
	// virtual time.
	StartSec float64
	EndSec   float64
	// Run is the tenant's run artifact (collector, absolute last-rank
	// finish as Wall, shared-mount stats; no per-tenant telemetry —
	// the session folds one merged stream).
	Run *workloads.Run
	// Usage is the tenant's attributed slice of the server-side view.
	Usage lustre.TenantUsage
}

// Result is a finished co-run.
type Result struct {
	Tenants []TenantResult
	// Telemetry/Spans are the merged session stream (nil and empty
	// unless Config.Telemetry); the io spans render from the traces.
	Telemetry *telemetry.Snapshot
	Spans     tracefmt.SpanView
}

// tenantSeed decorrelates the tenants' workload-body randomness while
// keeping each tenant's draws a pure function of (session seed, tenant
// index) — the property the solo-baseline protocol relies on.
func tenantSeed(seed int64, i int) int64 { return seed + int64(i) }

// validName reports whether a tenant name parses unambiguously in
// counter ("tenant.<name>.") and span ("<name>/") tags.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

// compile validates the tenant list and compiles each spec with its
// file tree moved under /tenants/<name>, so tenants sharing a default
// path never collide on the shared mount.
func compile(tenants []Tenant) ([]*workloads.Program, error) {
	if len(tenants) == 0 {
		return nil, fmt.Errorf("tenancy: need at least one tenant")
	}
	progs := make([]*workloads.Program, len(tenants))
	for i := range tenants {
		t := &tenants[i]
		if !validName(t.Name) {
			return nil, fmt.Errorf("tenancy: tenant %d: name %q must be non-empty [A-Za-z0-9_-]+", i, t.Name)
		}
		for j := 0; j < i; j++ {
			if tenants[j].Name == t.Name {
				return nil, fmt.Errorf("tenancy: duplicate tenant name %q", t.Name)
			}
		}
		if t.Spec == nil {
			return nil, fmt.Errorf("tenancy: tenant %q: nil spec", t.Name)
		}
		if t.StartSec < 0 {
			return nil, fmt.Errorf("tenancy: tenant %q: negative start offset %g", t.Name, t.StartSec)
		}
		spec := *t.Spec
		base := spec.FilePath()
		if base[0] != '/' {
			base = "/" + base
		}
		spec.Path = "/tenants/" + t.Name + base
		p, err := workloads.Compile(&spec)
		if err != nil {
			return nil, fmt.Errorf("tenancy: tenant %q: %w", t.Name, err)
		}
		progs[i] = p
	}
	return progs, nil
}

// sharedStripeCount picks the mount-wide default stripe count: the
// tenants' common value when they agree, otherwise 0 (stripe over all
// OSTs) — the mount is shared, so striping cannot vary per tenant.
func sharedStripeCount(progs []*workloads.Program) int {
	sc := progs[0].Spec().StripeCount
	for _, p := range progs[1:] {
		if p.Spec().StripeCount != sc {
			return 0
		}
	}
	return sc
}

// launch builds a session for the tenant list and runs it. With
// only < 0 every tenant is attached (the co-run); with only = i just
// tenant i runs — but on a platform of the SAME total node count, with
// the same platform seed, the same node block, and the same start
// offset as the co-run. That is the solo-baseline protocol: the one
// machine sample the co-run used, with the neighbors removed, so the
// makespan difference is attributable to the neighbors and nothing
// else (fault windows even land at the same virtual times, because the
// stagger is kept).
func launch(cfg Config, tenants []Tenant, progs []*workloads.Program, only int, mode ipmio.Mode, withTel bool) (*workloads.Session, []*workloads.Job) {
	cores := cfg.Machine.CoresPerNode
	bases := make([]int, len(progs))
	total := 0
	for i, p := range progs {
		bases[i] = total
		total += (p.Ranks() + cores - 1) / cores
	}

	sess := workloads.NewSession(workloads.SessionConfig{
		Machine:     cfg.Machine,
		Nodes:       total,
		Seed:        cfg.Seed,
		Faults:      cfg.Faults,
		Telemetry:   withTel,
		StripeCount: sharedStripeCount(progs),
	})

	jobs := make([]*workloads.Job, len(progs))
	for i, p := range progs {
		if only >= 0 && i != only {
			continue
		}
		// Tenant i's body draws use tenantSeed(i) in the baseline
		// exactly as in the co-run.
		jobs[i] = sess.AddJob(p, workloads.TenantJobConfig{
			Name:     tenants[i].Name,
			NodeBase: bases[i],
			StartSec: tenants[i].StartSec,
			Mode:     mode,
			Seed:     tenantSeed(cfg.Seed, i),
		})
	}
	sess.Run()
	return sess, jobs
}

// simPanic wraps a panic recovered from a simulation (a failing rank
// body, or a deadlocked session) as the session's error. The engine
// has already stopped every simulated process, so nothing is left
// running.
func simPanic(what string, r any) error {
	return fmt.Errorf("tenancy: %s: simulation panicked: %v", what, r)
}

// RunTenants executes the co-run: every tenant on the shared platform,
// staggered per its StartSec, driven by one engine run. A panic inside
// the simulation is returned as the error.
func RunTenants(cfg Config, tenants []Tenant) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, simPanic("co-run", r)
		}
	}()
	progs, err := compile(tenants)
	if err != nil {
		return nil, err
	}
	mode := cfg.Mode
	if mode == 0 {
		mode = ipmio.TraceMode
	}
	sess, jobs := launch(cfg, tenants, progs, -1, mode, cfg.Telemetry)

	res = &Result{}
	for i, j := range jobs {
		res.Tenants = append(res.Tenants, TenantResult{
			Name:     tenants[i].Name,
			StartSec: j.StartSec(),
			EndSec:   j.EndSec(),
			Run:      j.Finish(),
			Usage:    j.Usage(),
		})
	}
	res.Telemetry, res.Spans = sess.Fold()
	return res, nil
}

// SoloBaselines re-simulates each tenant alone under the solo-baseline
// protocol (see launch) and returns each tenant's solo makespan in
// seconds. Baselines run sequentially in tenant order — the function
// is a pure, memo-friendly function of cfg and tenants. A panic inside
// a baseline is returned as the error.
func SoloBaselines(cfg Config, tenants []Tenant) (solo []float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			solo, err = nil, simPanic("solo baseline", r)
		}
	}()
	progs, err := compile(tenants)
	if err != nil {
		return nil, err
	}
	solo = make([]float64, len(progs))
	for i := range progs {
		_, jobs := launch(cfg, tenants, progs, i, ipmio.ProfileMode, false)
		solo[i] = jobs[i].EndSec() - jobs[i].StartSec()
	}
	return solo, nil
}

// Analyze runs the solo baselines and computes the LASSi-style
// interference report for a finished co-run.
func Analyze(cfg Config, tenants []Tenant, res *Result, icfg analysis.InterferenceConfig) (*analysis.InterferenceReport, error) {
	solo, err := SoloBaselines(cfg, tenants)
	if err != nil {
		return nil, err
	}
	obs := make([]analysis.TenantObs, len(res.Tenants))
	for i := range res.Tenants {
		t := &res.Tenants[i]
		o := analysis.TenantObs{
			Name:     t.Name,
			StartSec: t.StartSec,
			EndSec:   t.EndSec,
			SoloSec:  solo[i],
			Events:   t.Run.Collector.Events,
		}
		per := t.Usage.PerOST
		o.OSTSeconds = make([]float64, len(per))
		o.OSTMB = make([]float64, len(per))
		for j := range per {
			o.OSTSeconds[j] = per[j].Seconds
			o.OSTMB[j] = per[j].MB
		}
		obs[i] = o
	}
	return analysis.Interference(obs, icfg), nil
}
