package analysis

import (
	"fmt"
	"math"
	"sort"

	"ensembleio/internal/ensemble"
	"ensembleio/internal/ipmio"
)

// Severity ranks a finding.
type Severity int

// Severity levels.
const (
	Info Severity = iota
	Warning
	Critical
)

func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Critical:
		return "critical"
	}
	return "unknown"
}

// Finding is one diagnosis produced by the advisor.
type Finding struct {
	Code     string // stable identifier, e.g. "node-serialization"
	Severity Severity
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("[%s] %s: %s", f.Severity, f.Code, f.Message)
}

// DiagnoseConfig parametrizes the advisor.
type DiagnoseConfig struct {
	// StripeBytes for alignment checks (default 1e6).
	StripeBytes int64
	// SmallIOBytes: writes at or below this are metadata-class
	// (default 64 KiB).
	SmallIOBytes int64
	// SaturationWriters: the number of concurrent writers known to
	// saturate the I/O subsystem (default 80, the Franklin figure
	// quoted in §V).
	SaturationWriters int
	// CoresPerNode maps ranks to nodes under block assignment, for
	// node-local signatures (default 4).
	CoresPerNode int
	// Marks are the run's phase boundaries. The phase-correlated
	// detectors (intermittent-stall, background-contention) stay
	// silent without them.
	Marks []ipmio.PhaseMark
	// OSTRates is the server-side per-OST view from lustre.Stats;
	// straggler-OST localization cross-checks the trace ensemble
	// against it and stays silent without it.
	OSTRates []OSTRate
}

// OSTRate is one OST's server-side service observation.
type OSTRate struct {
	MBps float64 // mean observed per-stream service rate
	MB   float64 // megabytes served
}

func (c *DiagnoseConfig) defaults() {
	if c.StripeBytes == 0 {
		c.StripeBytes = 1e6
	}
	if c.SmallIOBytes == 0 {
		c.SmallIOBytes = 64 << 10
	}
	if c.SaturationWriters == 0 {
		c.SaturationWriters = 80
	}
	if c.CoresPerNode == 0 {
		c.CoresPerNode = 4
	}
}

// Diagnose inspects a merged trace for the bottleneck signatures of
// the paper's case studies and returns its findings, most severe
// first. Intermediates several detectors read — the read-duration
// ensemble, per-rank medians, each phase's order statistics — are
// computed once.
func Diagnose(events []ipmio.Event, cfg DiagnoseConfig) []Finding {
	cfg.defaults()
	reads := Durations(events, IsOp(ipmio.OpRead))
	readTail := false
	if reads.Len() >= 20 {
		med := reads.Quantile(0.5)
		readTail = med > 0 && reads.Quantile(0.99)/med >= 8
	}
	ranks, meds := rankMedians(events, cfg.SmallIOBytes)
	// The phase-correlated detectors stay silent below three marks
	// (nil phase statistics).
	var phases []phaseStat
	if len(cfg.Marks) >= 3 {
		ph, phaseOf := phaseIndex(events, cfg.Marks, 0) // no detector reads the final EndT
		vals, off := phaseGroups(events, ph, phaseOf, cfg.SmallIOBytes)
		phases = phaseStats(ph, vals, off)
	}
	var out []Finding
	if f, ok := diagnoseMultiModalWrites(events); ok {
		out = append(out, f)
	}
	if f, ok := diagnoseReadTail(reads); ok {
		out = append(out, f)
	}
	if f, ok := diagnoseStridedReads(events); ok {
		out = append(out, f)
	}
	if f, ok := diagnoseSerializedMetadata(events, cfg); ok {
		out = append(out, f)
	}
	if f, ok := diagnoseMisalignment(events, cfg); ok {
		out = append(out, f)
	}
	if f, ok := diagnoseWriterOversubscription(events, cfg); ok {
		out = append(out, f)
	}
	if f, ok := diagnoseSingleRankSerializer(events); ok {
		out = append(out, f)
	}
	if f, ok := diagnoseStragglerOST(ranks, meds, cfg); ok {
		out = append(out, f)
	}
	if f, ok := diagnoseSlowNode(ranks, meds, cfg); ok {
		out = append(out, f)
	}
	if f, ok := diagnoseIntermittentStall(phases, readTail); ok {
		out = append(out, f)
	}
	if f, ok := diagnoseMDSBrownout(events); ok {
		out = append(out, f)
	}
	if f, ok := diagnoseBackgroundContention(phases, readTail); ok {
		out = append(out, f)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Severity > out[j].Severity })
	return out
}

// diagnoseMultiModalWrites flags the Figure-1c signature: several
// well-separated modes in the large-write duration distribution,
// indicating node-level serialization of client write-back.
func diagnoseMultiModalWrites(events []ipmio.Event) (Finding, bool) {
	d := Durations(events, func(e ipmio.Event) bool {
		return e.Op == ipmio.OpWrite && e.Bytes >= 16e6
	})
	if d.Len() < 50 {
		return Finding{}, false
	}
	h := ensemble.NewHistogram(ensemble.LinearBins(0, d.Max()*1.001, 80))
	h.AddAll(d)
	modes := h.Modes(ensemble.ModeOpts{MinProminence: 0.12, MinMass: 0.05})
	if len(modes) < 2 {
		return Finding{}, false
	}
	return Finding{
		Code:     "node-serialization",
		Severity: Warning,
		Message: fmt.Sprintf("write durations are %d-modal (strongest modes at %.1fs and %.1fs): node-level client scheduling serializes task streams; splitting transfers into more, smaller calls averages tasks toward fair share (Law of Large Numbers)",
			len(modes), modes[0].Center, modes[1].Center),
	}, true
}

// diagnoseReadTail flags a heavy right tail in read durations — the
// MADbench-on-Franklin signature. d is the read-duration ensemble.
func diagnoseReadTail(d *ensemble.Dataset) (Finding, bool) {
	if d.Len() < 20 {
		return Finding{}, false
	}
	med, p99 := d.Quantile(0.5), d.Quantile(0.99)
	if med <= 0 || p99/med < 8 {
		return Finding{}, false
	}
	return Finding{
		Code:     "read-tail",
		Severity: Critical,
		Message: fmt.Sprintf("read durations have a heavy right tail (p99 %.1fs vs median %.1fs, %.0fx): a subset of reads is pathologically slow; inspect per-phase CDFs for progressive deterioration",
			p99, med, p99/med),
	}, true
}

// diagnoseStridedReads detects the constant-stride read pattern that
// arms Lustre's strided read-ahead detection.
func diagnoseStridedReads(events []ipmio.Event) (Finding, bool) {
	// Per (rank, fd): check successive read offsets for constant
	// non-sequential stride.
	type key struct{ rank, fd int }
	last := make(map[key][2]int64) // last offset, last stride
	matched := 0
	total := 0
	for _, e := range events {
		if e.Op != ipmio.OpRead || e.Bytes <= 0 {
			continue
		}
		k := key{int(e.Rank), int(e.FD)}
		prev, ok := last[k]
		if ok {
			stride := e.Offset - prev[0]
			if stride != 0 && stride != e.Bytes { // non-sequential
				total++
				if stride == prev[1] {
					matched++
				}
			}
			last[k] = [2]int64{e.Offset, stride}
		} else {
			last[k] = [2]int64{e.Offset, 0}
		}
	}
	if total < 10 || float64(matched)/float64(total) < 0.6 {
		return Finding{}, false
	}
	return Finding{
		Code:     "strided-reads",
		Severity: Warning,
		Message: fmt.Sprintf("reads follow a constant-stride pattern (%d/%d strides match): this arms strided read-ahead detection in the file system; combined with memory pressure from interleaved writes it can degenerate to page-sized reads",
			matched, total),
	}, true
}

// diagnoseSerializedMetadata flags many small writes concentrated on
// few ranks — the GCRM baseline signature.
func diagnoseSerializedMetadata(events []ipmio.Event, cfg DiagnoseConfig) (Finding, bool) {
	small := 0
	smallTime := 0.0
	ranks := make(map[int]int)
	var minStart, maxEnd float64
	first := true
	for _, e := range events {
		if e.Op != ipmio.OpWrite {
			continue
		}
		s, en := float64(e.Start), float64(e.Start+e.Dur)
		if first || s < minStart {
			minStart = s
		}
		if first || en > maxEnd {
			maxEnd = en
		}
		first = false
		if e.Bytes > 0 && e.Bytes <= cfg.SmallIOBytes {
			small++
			smallTime += float64(e.Dur)
			ranks[int(e.Rank)]++
		}
	}
	span := maxEnd - minStart
	if small < 50 || span <= 0 {
		return Finding{}, false
	}
	// Small writes funneled through few ranks serialize, so their
	// cumulative time is paid in wall-clock; compare against the span
	// of all write activity.
	frac := smallTime / span
	if frac < 0.15 || len(ranks) > 4 {
		return Finding{}, false
	}
	return Finding{
		Code:     "serialized-metadata",
		Severity: Critical,
		Message: fmt.Sprintf("%d sub-%dKB writes from %d rank(s) consume ~%.0f%% of the write-activity span: aggregate metadata into one large deferred write at close",
			small, cfg.SmallIOBytes>>10, len(ranks), frac*100),
	}, true
}

// diagnoseMisalignment flags sized transfers that are not stripe
// aligned.
func diagnoseMisalignment(events []ipmio.Event, cfg DiagnoseConfig) (Finding, bool) {
	mis, total := 0, 0
	for _, e := range events {
		if e.Op != ipmio.OpWrite || e.Bytes <= cfg.SmallIOBytes {
			continue
		}
		total++
		if e.Offset%cfg.StripeBytes != 0 || e.Bytes%cfg.StripeBytes != 0 {
			mis++
		}
	}
	if total < 20 {
		return Finding{}, false
	}
	frac := float64(mis) / float64(total)
	if frac < 0.5 {
		return Finding{}, false
	}
	return Finding{
		Code:     "misaligned-writes",
		Severity: Warning,
		Message: fmt.Sprintf("%.0f%% of data writes are not aligned to the %d-byte stripe: partial-stripe RPCs bounce extent locks between clients; pad and align records to stripe boundaries",
			frac*100, cfg.StripeBytes),
	}, true
}

// diagnoseWriterOversubscription flags far more concurrent writers
// than the I/O subsystem needs for saturation.
func diagnoseWriterOversubscription(events []ipmio.Event, cfg DiagnoseConfig) (Finding, bool) {
	writers := make(map[int]bool)
	for _, e := range events {
		if e.Op == ipmio.OpWrite && e.Bytes > cfg.SmallIOBytes {
			writers[int(e.Rank)] = true
		}
	}
	n := len(writers)
	if n < cfg.SaturationWriters*8 {
		return Finding{}, false
	}
	return Finding{
		Code:     "writer-oversubscription",
		Severity: Warning,
		Message: fmt.Sprintf("%d ranks write concurrently but ~%d writers saturate the I/O subsystem: aggregate data to a writer subset (collective buffering, ~%dx fewer writers)",
			n, cfg.SaturationWriters, int(math.Max(1, float64(n/cfg.SaturationWriters)))),
	}, true
}

// diagnoseSingleRankSerializer flags runs whose span is dominated by
// periods where exactly one rank is doing I/O while every other rank
// idles — the Figure 6(g) signature, independent of what the solo
// rank is writing.
func diagnoseSingleRankSerializer(events []ipmio.Event) (Finding, bool) {
	rank, frac, ok := Serializer(events, 0.25)
	if !ok {
		return Finding{}, false
	}
	return Finding{
		Code:     "single-rank-serialization",
		Severity: Critical,
		Message: fmt.Sprintf("rank %d is the only rank doing I/O for %.0f%% of the run span: its serial work gates every barrier; parallelize or defer it",
			rank, frac*100),
	}, true
}

// Reproducibility quantifies the paper's central stability claim for
// two runs of the same experiment: the KS distance between their
// ensembles. Below 0.1 the ensembles are operationally identical.
func Reproducibility(a, b *ensemble.Dataset) (ks float64, reproducible bool) {
	ks = ensemble.KS(a, b)
	return ks, ks < 0.1
}
