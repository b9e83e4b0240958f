// Package ensembleio reproduces "Parallel I/O Performance: From Events
// to Ensembles" (Uselton et al., IPDPS 2010) as a runnable system: a
// simulated Cray-XT-class machine with a Lustre-like parallel file
// system, an IPM-I/O-style tracing layer, the paper's three workloads
// (IOR, MADbench, GCRM), and — the core contribution — a statistical
// toolkit that analyses populations of I/O events as ensembles:
// histograms, moments, modes, order statistics and
// Law-of-Large-Numbers predictions.
//
// Quick start:
//
//	run := ensembleio.RunIOR(ensembleio.IORConfig{
//		Machine: ensembleio.Franklin(),
//		Tasks:   1024,
//		Reps:    5,
//	})
//	writes := ensembleio.Durations(run, ensembleio.OpWrite)
//	hist := ensembleio.NewHistogram(ensembleio.LinearBins(0, writes.Max()*1.01, 100))
//	hist.AddAll(writes)
//	for _, mode := range hist.Modes(ensembleio.ModeOpts{}) {
//		fmt.Printf("mode at %.1fs mass=%.2f\n", mode.Center, mode.Mass)
//	}
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record of every reproduced figure.
package ensembleio

import (
	"io"
	"strconv"
	"strings"

	"ensembleio/internal/sim"

	"ensembleio/internal/analysis"
	"ensembleio/internal/cascache"
	"ensembleio/internal/cluster"
	"ensembleio/internal/ensemble"
	"ensembleio/internal/ensemble/campaign"
	"ensembleio/internal/faults"
	"ensembleio/internal/ipmio"
	"ensembleio/internal/lustre"
	"ensembleio/internal/runpool"
	"ensembleio/internal/telemetry"
	"ensembleio/internal/tenancy"
	"ensembleio/internal/tracefmt"
	"ensembleio/internal/wldsl"
	"ensembleio/internal/workloads"
)

// Platform describes a machine and file-system behaviour profile.
type Platform = cluster.Profile

// Franklin returns the LBNL Cray XT4 profile (the paper's primary
// platform, exhibiting the strided read-ahead defect by default).
func Franklin() Platform { return cluster.Franklin() }

// FranklinPatched returns Franklin with the Lustre strided read-ahead
// patch of §IV-C installed.
func FranklinPatched() Platform { return cluster.FranklinPatched() }

// Jaguar returns the ORNL XT4-partition profile.
func Jaguar() Platform { return cluster.Jaguar() }

// Workload configurations and runner entry points.
type (
	// IORConfig parametrizes the IOR micro-benchmark (§III).
	IORConfig = workloads.IORConfig
	// MADbenchConfig parametrizes the MADbench I/O kernel (§IV).
	MADbenchConfig = workloads.MADbenchConfig
	// GCRMConfig parametrizes the GCRM I/O kernel (§V).
	GCRMConfig = workloads.GCRMConfig
	// Run is a workload execution artifact.
	Run = workloads.Run
)

// RunIOR executes the IOR benchmark on the simulated machine.
func RunIOR(cfg IORConfig) *Run { return workloads.RunIOR(cfg) }

// RunMADbench executes the MADbench I/O kernel.
func RunMADbench(cfg MADbenchConfig) *Run { return workloads.RunMADbench(cfg) }

// RunGCRM executes the GCRM I/O kernel.
func RunGCRM(cfg GCRMConfig) *Run { return workloads.RunGCRM(cfg) }

// Fault injection (set a config's Faults field, or pass -faults
// scenario.json to the CLIs). Every fault is deterministic in virtual
// time: the same scenario and seed reproduce the same run bit-for-bit.
type (
	// Scenario is a named, JSON-decodable composition of faults.
	Scenario = faults.Scenario
	// Fault is one injectable degradation.
	Fault = faults.Fault
	// SlowOST scales one OST's service rate by a constant factor.
	SlowOST = faults.SlowOST
	// FlakyOST gives one OST periodic stall windows in virtual time.
	FlakyOST = faults.FlakyOST
	// SlowNodeLink caps one compute node's link rate.
	SlowNodeLink = faults.SlowNodeLink
	// MDSBrownout reduces metadata concurrency and fattens lock
	// revocation tails.
	MDSBrownout = faults.MDSBrownout
	// BackgroundBursts injects periodic competing fabric load.
	BackgroundBursts = faults.BackgroundBursts
)

// LoadScenario reads a fault scenario spec from a JSON file.
func LoadScenario(path string) (*Scenario, error) { return faults.Load(path) }

// ParseScenario reads a fault scenario spec from a reader.
func ParseScenario(r io.Reader) (*Scenario, error) { return faults.Parse(r) }

// CheckpointConfig parametrizes the generic compute/checkpoint cycle.
type CheckpointConfig = workloads.CheckpointConfig

// CheckpointResult is a checkpoint run with per-step I/O costs.
type CheckpointResult = workloads.CheckpointResult

// RunCheckpoint executes a compute/checkpoint cycle.
func RunCheckpoint(cfg CheckpointConfig) *CheckpointResult {
	return workloads.RunCheckpoint(cfg)
}

// Declarative workload DSL: JSON specs (internal/wldsl) describing
// phases, per-rank op sequences, sizes, strides and collective
// buffering, compiled into deterministic sim programs by the workload
// interpreter (internal/workloads) that also runs IOR, MADbench, and
// GCRM.
type (
	// WorkloadSpec is a decoded workload description.
	WorkloadSpec = workloads.Spec
	// WorkloadProgram is a compiled, runnable spec.
	WorkloadProgram = workloads.Program
	// WorkloadRunConfig carries the runtime knobs a spec does not:
	// machine, seed, collection mode, faults, telemetry.
	WorkloadRunConfig = workloads.RunConfig
)

// ParseWorkload decodes and validates a workload spec.
func ParseWorkload(r io.Reader) (*WorkloadSpec, error) { return wldsl.Parse(r) }

// LoadWorkload reads a workload spec from a JSON file.
func LoadWorkload(path string) (*WorkloadSpec, error) { return wldsl.Load(path) }

// EncodeWorkload writes a spec in the canonical encoding (indented
// JSON, struct field order, trailing newline) — a decode/encode
// fixpoint.
func EncodeWorkload(w io.Writer, s *WorkloadSpec) error { return wldsl.Encode(w, s) }

// CompileWorkload resolves a spec into a runnable program.
func CompileWorkload(s *WorkloadSpec) (*WorkloadProgram, error) { return workloads.Compile(s) }

// RunWorkload compiles and executes a workload spec in one step.
func RunWorkload(s *WorkloadSpec, cfg WorkloadRunConfig) (*Run, error) {
	p, err := workloads.Compile(s)
	if err != nil {
		return nil, err
	}
	return p.Run(cfg), nil
}

// GenerateWorkload returns a seeded pseudo-random valid workload spec
// drawn from the checked-in corpus's scenario families (for fuzzing
// the determinism suite).
func GenerateWorkload(seed int64) *WorkloadSpec { return wldsl.Generate(seed) }

// GenerateAdversarialWorkload returns a seeded spec from the
// generator's adversarial family directly: 32-64 ranks issuing tiny
// transfers (4 KiB - 256 KiB) that straddle the small-I/O threshold —
// the canonical noisy-neighbor shape for interference testing.
func GenerateAdversarialWorkload(seed int64) *WorkloadSpec { return wldsl.GenerateAdversarial(seed) }

// Multi-tenant co-scheduling (internal/tenancy): several declarative
// workloads share one platform — engine, fabric, lustre mount,
// metadata service — with staggered starts, per-tenant accounting, and
// LASSi-style interference analysis against automatically simulated
// solo baselines.
type (
	// Tenant is one co-scheduled workload instance (name, spec,
	// start offset).
	Tenant = tenancy.Tenant
	// TenancyConfig carries the session-wide runtime knobs.
	TenancyConfig = tenancy.Config
	// TenancyResult is a finished co-run: per-tenant artifacts plus
	// the merged telemetry stream.
	TenancyResult = tenancy.Result
	// TenantResult is one tenant's share of a co-run.
	TenantResult = tenancy.TenantResult
	// InterferenceConfig tunes the interference-metric thresholds.
	InterferenceConfig = analysis.InterferenceConfig
	// InterferenceReport is the LASSi-style analysis artifact:
	// per-tenant metrics, contention windows, victim/aggressor
	// ranking.
	InterferenceReport = analysis.InterferenceReport
	// InterferencePair is one ranked victim/aggressor finding.
	InterferencePair = analysis.InterferencePair
	// TenantMetrics is one tenant's share of a co-run.
	TenantMetrics = analysis.TenantMetrics
	// ContentionWindow is a span with two or more active tenants.
	ContentionWindow = analysis.ContentionWindow
)

// RunTenants executes a multi-tenant co-run on one shared platform.
func RunTenants(cfg TenancyConfig, tenants []Tenant) (*TenancyResult, error) {
	return tenancy.RunTenants(cfg, tenants)
}

// AnalyzeInterference simulates each tenant's solo baseline and
// computes the interference report for a finished co-run. Both the
// baselines and the report are deterministic functions of the inputs.
func AnalyzeInterference(cfg TenancyConfig, tenants []Tenant, res *TenancyResult, icfg InterferenceConfig) (*InterferenceReport, error) {
	return tenancy.Analyze(cfg, tenants, res, icfg)
}

// Trace event model (IPM-I/O).
type (
	// Event is one traced I/O call.
	Event = ipmio.Event
	// Op identifies the traced call type.
	Op = ipmio.Op
	// PhaseMark labels a phase boundary.
	PhaseMark = ipmio.PhaseMark
	// Collector aggregates trace events and online profiles.
	Collector = ipmio.Collector
)

// Traced operations.
const (
	OpOpen  = ipmio.OpOpen
	OpClose = ipmio.OpClose
	OpRead  = ipmio.OpRead
	OpWrite = ipmio.OpWrite
	OpSeek  = ipmio.OpSeek
	OpFsync = ipmio.OpFsync
)

// Collection modes.
const (
	TraceMode   = ipmio.TraceMode
	ProfileMode = ipmio.ProfileMode
	PatternMode = ipmio.PatternMode
)

// Access-pattern classification (the paper's future-work extension:
// online pattern detection feeding hints to the file system).
type (
	// Pattern classifies an access stream.
	Pattern = ipmio.Pattern
	// PatternSummary aggregates stream classifications for one op.
	PatternSummary = ipmio.PatternSummary
	// PatternDetector classifies access streams online.
	PatternDetector = ipmio.PatternDetector
)

// Stream classifications.
const (
	PatternUnknown    = ipmio.PatternUnknown
	PatternSequential = ipmio.PatternSequential
	PatternStrided    = ipmio.PatternStrided
	PatternRandom     = ipmio.PatternRandom
)

// DetectPatterns classifies every access stream of a traced run by
// replaying its events through the online detector.
func DetectPatterns(run *Run) *PatternDetector {
	pd := ipmio.NewPatternDetector()
	for _, e := range run.Collector.Events {
		pd.Observe(e)
	}
	return pd
}

// Ensemble statistics (the paper's core).
type (
	// Dataset is an ensemble of scalar observations.
	Dataset = ensemble.Dataset
	// Histogram is a streaming binned distribution.
	Histogram = ensemble.Histogram
	// Bins defines a histogram binning.
	Bins = ensemble.Bins
	// Mode is one detected distribution peak.
	Mode = ensemble.Mode
	// ModeOpts tunes peak detection.
	ModeOpts = ensemble.ModeOpts
	// Moments is a distribution moment summary.
	Moments = ensemble.Moments
)

// NewDataset wraps raw observations as an ensemble.
func NewDataset(xs []float64) *Dataset { return ensemble.NewDataset(xs) }

// NewHistogram returns an empty histogram over the binning.
func NewHistogram(b Bins) *Histogram { return ensemble.NewHistogram(b) }

// LinearBins returns n equal-width bins over [lo, hi).
func LinearBins(lo, hi float64, n int) Bins { return ensemble.LinearBins(lo, hi, n) }

// LogBins returns log-spaced bins (the paper's log-log histograms).
func LogBins(lo, hi float64, perDecade int) Bins { return ensemble.LogBins(lo, hi, perDecade) }

// KS returns the two-sample Kolmogorov-Smirnov distance.
func KS(a, b *Dataset) float64 { return ensemble.KS(a, b) }

// Wasserstein returns the earth-mover distance between two ensembles.
func Wasserstein(a, b *Dataset) float64 { return ensemble.Wasserstein(a, b) }

// GaussianKS scores how far an ensemble is from its fitted Gaussian.
func GaussianKS(d *Dataset) float64 { return ensemble.GaussianKS(d) }

// KDE is a Gaussian kernel density estimate — a binning-free second
// opinion for mode detection.
type KDE = ensemble.KDE

// NewKDE builds a kernel density estimate (bandwidth 0 selects
// Silverman's rule).
func NewKDE(d *Dataset, bandwidth float64) *KDE { return ensemble.NewKDE(d, bandwidth) }

// Summarize computes the full ensemble characterization: moments,
// modes with harmonic analysis, tail index and normality score.
func Summarize(d *Dataset) ensemble.Summary {
	return ensemble.Summarize(d, ensemble.SummaryOpts{})
}

// ExpectedMax estimates the expected slowest of n draws (Eq. 1's
// order-statistic view of barrier-synchronized phase time).
func ExpectedMax(h *Histogram, n int) float64 { return ensemble.ExpectedMax(h, n) }

// SplitPrediction predicts the slowest-task total when one transfer is
// split into k calls (the Fig. 2 Law-of-Large-Numbers effect).
func SplitPrediction(single *Dataset, k, nTasks int) float64 {
	return ensemble.SplitPrediction(single, k, nTasks)
}

// ConvolveK returns the distribution of the sum of k iid draws from a
// linearly binned histogram — the t_k construction of §III-A.
func ConvolveK(h *Histogram, k int) *Histogram { return ensemble.ConvolveK(h, k) }

// Durations extracts the duration ensemble of one op type from a run.
func Durations(run *Run, op Op) *Dataset {
	return analysis.Durations(run.Collector.Events, analysis.IsOp(op))
}

// DataWrites extracts size-normalized (seconds per MB) durations of
// data-class writes (above the small-I/O threshold), the normalization
// of the GCRM histograms.
func DataWrites(run *Run) *Dataset {
	return analysis.SecPerMB(run.Collector.Events, func(e Event) bool {
		return e.Op == OpWrite && e.Bytes > 64<<10
	})
}

// Analysis layer.
type (
	// Phase is a barrier-delimited slice of a run.
	Phase = analysis.Phase
	// Finding is one advisor diagnosis.
	Finding = analysis.Finding
	// Series is a sampled aggregate-rate time series.
	Series = analysis.Series
)

// Phases slices a run into its barrier-delimited phases. Each phase's
// Events is a view of the run's trace (see analysis.Phases): read it,
// or copy it before changing it.
func Phases(run *Run) []Phase {
	return analysis.Phases(run.Collector.Events, run.Collector.Marks, run.Wall)
}

// RateSeries computes the aggregate data-rate time series of a run for
// one op type (Figures 1b, 4b, 6b).
func RateSeries(run *Run, op Op, dt float64) Series {
	return analysis.RateSeries(run.Collector.Events, analysis.IsOp(op), sim.Duration(dt), run.Wall)
}

// TraceDiagram renders the run's trace raster (Figures 1a, 4a, 6a).
func TraceDiagram(run *Run, width, height int) string {
	return analysis.TraceDiagram(run.Collector.Events, run.Tasks, width, height, run.Wall)
}

// Diagnose inspects a run's trace for the bottleneck signatures of the
// paper's case studies and of the injectable faults, cross-checking the
// trace ensemble against the run's server-side per-OST counters.
func Diagnose(run *Run) []Finding {
	cfg := analysis.DiagnoseConfig{
		CoresPerNode: run.CoresPerNode,
		Marks:        run.Collector.Marks,
	}
	for _, o := range run.FSStats.PerOST {
		cfg.OSTRates = append(cfg.OSTRates, analysis.OSTRate{MBps: o.MeanMBps(), MB: o.MB})
	}
	return analysis.Diagnose(run.Collector.Events, cfg)
}

// maxSnapshotOSTs bounds the OST index DiagnoseTrace accepts from a
// snapshot counter name, so a hostile snapshot cannot size the rate
// table.
const maxSnapshotOSTs = 1 << 16

// DiagnoseTrace diagnoses a saved trace exactly as Diagnose diagnoses
// the live run. The phase marks come from the trace. The run's
// telemetry snapshot, when given, supplies the server-side per-OST
// rates (the top-level lustre.ostNNN.mb and .seconds counters);
// without one the straggler-OST cross-check stays silent. Node-local
// signatures use the built-in profiles' four cores per node.
func DiagnoseTrace(events []Event, marks []PhaseMark, snap *TelemetrySnapshot) []Finding {
	cfg := analysis.DiagnoseConfig{Marks: marks}
	if snap != nil {
		var per []lustre.OSTStat
		for _, c := range snap.Counters {
			rest, ok := strings.CutPrefix(c.Name, "lustre.ost")
			if !ok {
				continue
			}
			idx, field, ok := strings.Cut(rest, ".")
			i, err := strconv.Atoi(idx)
			if !ok || err != nil || i < 0 || i >= maxSnapshotOSTs {
				continue
			}
			for len(per) <= i {
				per = append(per, lustre.OSTStat{})
			}
			switch field {
			case "mb":
				per[i].MB = c.Value
			case "seconds":
				per[i].Seconds = c.Value
			}
		}
		// OSTs the run never touched are absent from the snapshot and
		// stay at 0 MB, which the straggler cross-check ignores.
		for _, o := range per {
			cfg.OSTRates = append(cfg.OSTRates, analysis.OSTRate{MBps: o.MeanMBps(), MB: o.MB})
		}
	}
	return analysis.Diagnose(events, cfg)
}

// Gap is one idle interval of a rank between consecutive events.
type Gap = analysis.Gap

// RankActivity summarizes one rank's busy and exclusive-busy time.
type RankActivity = analysis.RankActivity

// Gaps returns each rank's idle intervals longer than minGap seconds.
func Gaps(run *Run, minGap float64) []Gap {
	return analysis.Gaps(run.Collector.Events, sim.Duration(minGap))
}

// RankActivities computes per-rank busy and exclusive-busy time.
func RankActivities(run *Run) []RankActivity {
	return analysis.RankActivities(run.Collector.Events)
}

// Serializer names the rank whose exclusive I/O activity dominates the
// run span (the Figure 6g single-rank bottleneck), if any.
func Serializer(run *Run) (rank int, frac float64, ok bool) {
	return analysis.Serializer(run.Collector.Events, 0.25)
}

// Reproducibility quantifies ensemble stability between two runs of
// the same experiment (KS distance; below 0.1 counts as reproducible).
func Reproducibility(a, b *Dataset) (ks float64, reproducible bool) {
	return analysis.Reproducibility(a, b)
}

// Comparison is a per-operation reproducibility report for two runs.
type Comparison = analysis.Comparison

// CompareRuns compares two runs' ensembles op by op against adaptive
// (sample-size-aware) KS thresholds.
func CompareRuns(a, b *Run) Comparison {
	return analysis.CompareEvents(a.Collector.Events, b.Collector.Events, 0, 0)
}

// Sweep drivers for the paper's iterated experiments.
type (
	// TransferPoint is one point of a Figure 2 transfer-size sweep.
	TransferPoint = workloads.TransferPoint
	// WriterPoint is one point of a §V writer-count sweep.
	WriterPoint = workloads.WriterPoint
)

// IORTransferSweep runs the Figure 2 splitting experiment on at most
// workers OS workers (workers <= 0 means all cores, 1 means
// sequential), reporting live completion counts to progress (nil
// disables it). The reduction is in submission order, so results are
// identical at any worker count, with or without progress.
func IORTransferSweep(base IORConfig, ks []int, seeds []int64, workers int, progress Progress) []TransferPoint {
	return workloads.IORTransferSweep(base, ks, seeds, workers, progress)
}

// IORWriterSweep runs the §V writer-saturation experiment, averaging
// walls over the given seeds; workers and progress are as for
// IORTransferSweep.
func IORWriterSweep(prof Platform, counts []int, totalTransfers int, transferBytes int64, seeds []int64, workers int, progress Progress) []WriterPoint {
	return workloads.IORWriterSweep(prof, counts, totalTransfers, transferBytes, seeds, workers, progress)
}

// RunMany executes one workload per config element on up to workers
// OS workers (workers <= 0 means all cores) and returns the runs
// indexed by config — the deterministic fan-out/ordered-reduction
// primitive behind every multi-seed loop in the CLIs and examples.
// Each simulation still executes on its own single-threaded engine,
// so any given config+seed is bit-reproducible regardless of
// the worker count.
func RunMany[C any](workers int, cfgs []C, run func(C) *Run) []*Run {
	return runpool.Map(workers, cfgs, func(_ int, c C) *Run { return run(c) })
}

// SaturationPoint locates the smallest writer count within slack of
// the best wall time in a writer sweep.
func SaturationPoint(points []WriterPoint, slack float64) (writers int, bestWall float64) {
	return workloads.SaturationPoint(points, slack)
}

// SaveTrace writes a run's trace in the compact binary format.
func SaveTrace(w io.Writer, run *Run) error {
	return tracefmt.WriteBinary(w, run.Collector.Events, run.Collector.Marks)
}

// SaveTraceJSON writes a run's trace as JSON lines.
func SaveTraceJSON(w io.Writer, run *Run) error {
	return tracefmt.WriteJSONL(w, run.Collector.Events, run.Collector.Marks)
}

// LoadTrace reads a binary trace.
func LoadTrace(r io.Reader) ([]Event, []PhaseMark, error) {
	return tracefmt.ReadBinary(r)
}

// LoadTraceJSON reads a JSONL trace.
func LoadTraceJSON(r io.Reader) ([]Event, []PhaseMark, error) {
	return tracefmt.ReadJSONL(r)
}

// Telemetry: the deterministic virtual-time observability layer. Set
// a workload config's Telemetry field to populate Run.Telemetry (the
// metric snapshot) and Run.Spans (phases and fault windows, plus the
// run's trace, which the span savers render as one per-rank io span
// per I/O call; Spans.All iterates the lot). Everything serialized
// here is a pure function of the run — byte-identical across repeats
// and worker counts.
type (
	// TelemetrySnapshot is a run's counters/gauges/histograms.
	TelemetrySnapshot = telemetry.Snapshot
	// Span is one virtual-time interval (category, name, rank).
	Span = telemetry.Span
)

// SaveTelemetry writes a run's telemetry snapshot as indented JSON.
func SaveTelemetry(w io.Writer, run *Run) error {
	return tracefmt.WriteMetrics(w, run.Telemetry)
}

// LoadTelemetry reads and validates a telemetry snapshot.
func LoadTelemetry(r io.Reader) (*TelemetrySnapshot, error) {
	return tracefmt.ReadMetrics(r)
}

// SaveSpans writes a run's spans in the compact JSONL span format.
func SaveSpans(w io.Writer, run *Run) error {
	return tracefmt.WriteSpans(w, run.Spans)
}

// SaveTelemetrySnapshot writes a bare telemetry snapshot — e.g. a
// multi-tenant session's merged stream — as indented JSON.
func SaveTelemetrySnapshot(w io.Writer, snap *TelemetrySnapshot) error {
	return tracefmt.WriteMetrics(w, snap)
}

// SaveSpanList writes a span stream that belongs to no single run —
// e.g. a co-run session's merged stream (TenancyResult.Spans) — in the
// compact JSONL span format.
func SaveSpanList(w io.Writer, spans tracefmt.SpanView) error {
	return tracefmt.WriteSpans(w, spans)
}

// LoadSpans reads a span JSONL stream.
func LoadSpans(r io.Reader) ([]Span, error) { return tracefmt.ReadSpans(r) }

// SaveChromeTrace writes a run's spans as Chrome trace-event JSON,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
func SaveChromeTrace(w io.Writer, run *Run) error {
	return tracefmt.WriteChromeTrace(w, run.Spans)
}

// ValidateChromeTrace schema-checks a Chrome trace-event stream
// against the subset SaveChromeTrace emits and returns the event
// count (the trace-smoke CI check).
func ValidateChromeTrace(r io.Reader) (int, error) {
	return tracefmt.ValidateChromeTrace(r)
}

// Progress receives sweep completion counts (done, total). It runs on
// the wall-clock side of the house: reporting never perturbs the
// simulated runs or their serialized artifacts.
type Progress = runpool.Progress

// StderrProgress returns a Progress rendering a single-line live
// meter (count, percent, rate, ETA) to w, typically os.Stderr.
func StderrProgress(w io.Writer, label string) Progress {
	//lint:allow(detflow) progress meters are host-side observability; the rendered rate/ETA never touches a run artifact
	return runpool.StderrProgress(w, label)
}

// RunManyProgress is RunMany with live completion reporting (nil
// progress disables it; results are unchanged either way).
func RunManyProgress[C any](workers int, cfgs []C, progress Progress, run func(C) *Run) []*Run {
	return runpool.MapProgress(workers, cfgs, progress, func(_ int, c C) *Run { return run(c) })
}

// Profile is the persistent, distribution-only form of a profile-mode
// collection — "just enough to define the distribution" (§VI).
type Profile = tracefmt.Profile

// ProfileOf extracts the persistent profile from a profile-mode run.
func ProfileOf(run *Run) (*Profile, error) { return tracefmt.ProfileOf(run.Collector) }

// SaveProfile writes a profile as JSON.
func SaveProfile(w io.Writer, p *Profile) error { return tracefmt.WriteProfile(w, p) }

// LoadProfile reads a profile.
func LoadProfile(r io.Reader) (*Profile, error) { return tracefmt.ReadProfile(r) }

// Content-addressed run cache (internal/cascache): because every run
// is a pure function of (workload, platform, faults, seed) with
// byte-identical artifacts, full artifact sets are memoized under a
// canonical scenario key — run once, serve every identical request.

type (
	// CacheStore is the on-disk content-addressed artifact store plus
	// its in-process MRU layer.
	CacheStore = cascache.Store
	// CacheKey is a canonical scenario identity.
	CacheKey = cascache.Key
	// CacheStats is a snapshot of a store's hit/miss/byte counters.
	CacheStats = cascache.Stats
	// CacheArtifact is one named blob of a cached artifact set.
	CacheArtifact = cascache.Artifact
	// CacheMeta is the human-readable manifest summary stored with
	// every cached artifact set.
	CacheMeta = cascache.Meta
)

// OpenCache opens (creating if needed) the cache rooted at dir.
func OpenCache(dir string) (*CacheStore, error) { return cascache.Open(dir) }

// ScenarioCacheKey derives the canonical cache key of one workload
// run from the spec, the full platform profile, the fault scenario
// and the seed.
func ScenarioCacheKey(spec *WorkloadSpec, prof Platform, sc *Scenario, seed int64) (CacheKey, error) {
	return cascache.ScenarioKey(spec, prof, sc, seed)
}

// CanonicalWorkloadBytes returns a workload spec's canonical encoding
// — the identity bytes cache keys are derived from.
func CanonicalWorkloadBytes(s *WorkloadSpec) ([]byte, error) { return wldsl.CanonicalBytes(s) }

// CanonicalScenario returns a fault scenario's canonical bytes (nil
// maps to "none") — the faults section of a cache key.
func CanonicalScenario(s *Scenario) ([]byte, error) { return faults.Canonical(s) }

// DiffCacheArtifacts compares two artifact sets byte for byte and
// reports the first divergence (nil when identical) — the check behind
// -cache-verify.
func DiffCacheArtifacts(served, fresh []CacheArtifact) error {
	return cascache.DiffArtifacts(served, fresh)
}

// Batch campaign runner (internal/ensemble/campaign): dedups a
// duplicate-heavy scenario grid against the cache and computes only
// the misses, with submission-order-stable results.

type (
	// CampaignEntry is one scenario of a campaign.
	CampaignEntry = campaign.Entry
	// CampaignOptions configures a campaign run.
	CampaignOptions = campaign.Options
	// CampaignResult is one entry's outcome.
	CampaignResult = campaign.Result
	// CampaignStats summarizes a campaign's cache effectiveness.
	CampaignStats = campaign.Stats
)

// RunCampaign executes a campaign; see campaign.Run.
func RunCampaign(entries []CampaignEntry, opts CampaignOptions) ([]CampaignResult, CampaignStats, error) {
	return campaign.Run(entries, opts)
}
