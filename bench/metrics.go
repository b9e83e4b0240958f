package main

// metricDef is one metric the benchmark reports; BENCHMARK.json at the
// repository root lists the same names, units, directions and bounds.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Floor is the smallest absolute worsening -compare counts as a
	// regression, for metrics so small that a relative bound alone
	// would flag scheduler noise.
	Floor float64 `json:"-"`
}

// endToEnd are the metrics a user of the simulator sees, measured on
// untraced passes. Bound is the share of the baseline median by which
// a metric may worsen before a change counts as a regression, so every
// one of them reads above 0 on a correct run.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.1},
	{Name: "scenarios_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "alloc_mb_per_scenario", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.2},
}

// failedFrac is the fifth end-to-end metric: failed ÷ attempted
// operations, where any increase is a regression. It reads 0 on a
// correct run, so no relative bound applies and it is not among
// endToEnd; the single-workload result line carries it as its
// attempted and failed counts.
var failedFrac = metricDef{Name: "failed_frac", Unit: "ratio", Better: "lower"}

// Per-layer metric families, all normalised per scenario. Layers are
// named for the repository's packages. Every workload reports every
// per-layer metric; one reads 0 on a workload that bypasses its layer,
// which is the "stays flat" prediction for that workload.
var (
	// workCounters are exact counts read from Run.Telemetry, the
	// collector and cascache.Store.Stats; they repeat exactly between
	// runs of the same seed.
	workCounters = []metricDef{
		{Name: "sim.events_popped", Unit: "count", Better: "lower"},
		{Name: "sim.heap_high_water", Unit: "count", Better: "lower"},
		{Name: "sim.ff_jumps", Unit: "count", Better: "higher"},
		{Name: "flownet.refreshes", Unit: "count", Better: "lower"},
		{Name: "flownet.recomputes", Unit: "count", Better: "lower"},
		{Name: "lustre.write_jobs", Unit: "count", Better: "lower"},
		{Name: "lustre.read_calls", Unit: "count", Better: "lower"},
		{Name: "lustre.conflicts", Unit: "count", Better: "lower"},
		{Name: "lustre.mds_ops", Unit: "count", Better: "lower"},
		{Name: "mpi.barriers", Unit: "count", Better: "lower"},
		{Name: "ipmio.events", Unit: "count", Better: "lower"},
		{Name: "tracefmt.bytes", Unit: "bytes", Better: "lower"},
		{Name: "cascache.disk_hits", Unit: "count", Better: "lower"},
		{Name: "cascache.mru_hits", Unit: "count", Better: "higher"},
		{Name: "cascache.puts", Unit: "count", Better: "lower"},
		{Name: "model.sim_s", Unit: "s", Better: "lower"},
	}
	// profiledLayers get <layer>.cpu_s (CPU profile self time, each
	// sample charged to its innermost repository frame) and
	// <layer>.alloc_mb (alloc_space heap profile, same rule).
	profiledLayers = []string{
		"sim", "flownet", "cluster", "lustre", "posixio", "mpi", "h5lite", "ipmio",
		"telemetry", "faults", "workloads", "wldsl", "tracefmt", "cascache",
		"campaign", "runpool", "analysis", "ensemble", "ensembleio", "bench", runtimeLayer,
	}
	// stageSpans are wall-clock spans the benchmark records around its
	// own calls into each layer's public functions.
	stageSpans = []string{
		"cascache.key_s", "cascache.get_s", "wldsl.compile_s", "workloads.run_s",
		"tracefmt.encode_s", "cascache.put_s", "analysis.run_s",
	}
	// passMetrics describe the traced pass as a whole and the runtime
	// around the untraced passes. runpool.util is the time inside pool
	// jobs ÷ (workers × wall); trace.span_cover is the share of the
	// traced wall during which a stage span was open.
	passMetrics = []metricDef{
		{Name: "go-runtime.gc_cpu_s", Unit: "s", Better: "lower"},
		{Name: "go-runtime.gc_cycles", Unit: "count", Better: "lower"},
		{Name: "runpool.util", Unit: "ratio", Better: "higher"},
		{Name: "trace.overhead", Unit: "ratio", Better: "lower"},
		{Name: "trace.cpu_attributed", Unit: "ratio", Better: "higher"},
		{Name: "trace.span_cover", Unit: "ratio", Better: "higher"},
	}
)

// perLayer lists every per-layer metric in report order.
func perLayer() []metricDef {
	out := append([]metricDef(nil), workCounters...)
	for _, l := range profiledLayers {
		out = append(out,
			metricDef{Name: l + ".cpu_s", Unit: "s", Better: "lower"},
			metricDef{Name: l + ".alloc_mb", Unit: "MB", Better: "lower"})
	}
	for _, s := range stageSpans {
		out = append(out, metricDef{Name: s, Unit: "s", Better: "lower"})
	}
	return append(out, passMetrics...)
}
