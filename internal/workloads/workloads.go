// Package workloads runs I/O workloads against the simulated stack.
// One interpreter (Compile, Program) executes declarative workload
// specs, and every workload is a builder over it: the paper's IOR
// parametrized micro-benchmark (§III, IORSpec), the MADbench
// out-of-core CMB solver I/O kernel (§IV, MADbenchSpec), the GCRM
// climate-model I/O kernel with its three progressive optimizations
// (§V, GCRMSpec), and the compute/checkpoint cycle (CheckpointSpec).
// Every run is a job on a Session: a solo run is a Session with one
// unnamed job, a multi-tenant co-run (internal/tenancy) attaches
// several named ones. Each run produces an IPM-I/O collector ready
// for ensemble analysis.
package workloads

import (
	"ensembleio/internal/ipmio"
	"ensembleio/internal/lustre"
	"ensembleio/internal/sim"
	"ensembleio/internal/telemetry"
	"ensembleio/internal/tracefmt"
)

// Run is the artifact of one workload execution.
type Run struct {
	Name      string
	Tasks     int
	Collector *ipmio.Collector
	// Wall is the makespan: the virtual time at which the last rank
	// finished the workload body.
	Wall sim.Duration
	// TotalBytes is the logical data volume moved by the workload's
	// sized operations (writes + reads), excluding metadata.
	TotalBytes int64
	// FSStats is the file system's server-side counter snapshot at the
	// end of the run — the second observation channel the advisor's
	// straggler-OST cross-check uses.
	FSStats lustre.Stats
	// CoresPerNode records the machine's rank-to-node block factor so
	// analysis can map ranks to nodes without the profile in hand.
	CoresPerNode int
	// Telemetry is the run's deterministic metric snapshot — engine,
	// fabric, lustre, and MPI counters over virtual time. Nil unless
	// the workload config set Telemetry: true.
	Telemetry *telemetry.Snapshot
	// Spans are the run's virtual-time spans: workload phases, fault
	// windows, and (in trace mode) per-rank I/O calls rendered from
	// Collector's events. Empty unless telemetry was enabled.
	Spans tracefmt.SpanView
}

// AggregateMBps is the job-level rate the paper reports: total data
// moved divided by wall time.
func (r *Run) AggregateMBps() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.TotalBytes) / 1e6 / float64(r.Wall)
}
