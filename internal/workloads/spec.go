package workloads

import (
	"fmt"
	"math"
	"strings"
)

// Declarative workload specs: phases, per-rank loops, and operation
// sequences (write / read / seek / barrier / metadata / ...) with size,
// stride, alignment, and collective-buffering parameters. A spec is a
// workload's *shape*; everything about a particular execution —
// machine profile, seed, fault scenario, telemetry, collection mode —
// stays a runtime knob (RunConfig). Compile resolves a spec into a
// Program, and the Program's interpreter is the one rank body every
// spec-driven workload runs: the paper's IOR, MADbench, and GCRM
// configs build specs (IORSpec, MADbenchSpec, GCRMSpec), and
// internal/wldsl reads and writes the JSON form. Spec errors carry the
// DSL's name ("wldsl: ...") because they describe spec input,
// whichever package reports them.

// Spec is one declarative workload.
type Spec struct {
	// Name labels the workload; it becomes Run.Name and prefixes
	// artifact file names, so it is restricted to [A-Za-z0-9._-].
	Name string `json:"name"`
	// Tasks is the logical task count. In posix mode every task is an
	// MPI rank; in h5 collective mode the rank count follows from the
	// Collective section (aggregator writers, optional stage-one
	// shipper ranks).
	Tasks int `json:"tasks"`
	// Path of the shared file (default /scratch/wl.dat, or
	// /scratch/wl.h5 in h5 mode).
	Path string `json:"path,omitempty"`
	// FilePerProcess gives each rank its own file, path.%05d (IOR -F:
	// the N-to-N pattern; default is one shared file, N-to-1). Posix
	// mode only.
	FilePerProcess bool `json:"file_per_process,omitempty"`
	// StripeCount overrides the stripe count of created files
	// (0 = stripe over all OSTs).
	StripeCount int `json:"stripe_count,omitempty"`
	// H5 selects the hierarchical-format model: Datasets plus the
	// write-records / metadata ops, instead of raw posix ops.
	H5 *H5 `json:"h5,omitempty"`
	// Collective configures collective buffering (h5 mode only).
	Collective *Collective `json:"collective,omitempty"`
	// Datasets declares the h5 datasets, in creation order.
	Datasets []Dataset `json:"datasets,omitempty"`
	// Phases execute in order on every rank.
	Phases []Phase `json:"phases"`
}

// H5 configures the hierarchical file model (see internal/h5lite).
type H5 struct {
	// AlignBytes pads dataset bases and record strides to this
	// boundary (0 = packed; the GCRM alignment optimization uses 1e6).
	AlignBytes int64 `json:"align_bytes,omitempty"`
	// AggregateMetadata defers all metadata into one large write at
	// close (the GCRM stage-three optimization).
	AggregateMetadata bool `json:"aggregate_metadata,omitempty"`
}

// Collective configures collective buffering: Aggregators writer
// ranks each own Tasks/Aggregators tasks' records. With TwoStage all
// Tasks ranks run and ship their records to their aggregator over MPI
// first (stage one + two); without it only the writers run.
type Collective struct {
	Aggregators int  `json:"aggregators"`
	TwoStage    bool `json:"two_stage,omitempty"`
}

// Dataset declares one h5 dataset of fixed-size records; each task
// owns RecordsPerTask of them.
type Dataset struct {
	Name        string `json:"name"`
	RecordBytes int64  `json:"record_bytes"`
	// RecordsPerTask is the records each logical task contributes
	// (the dataset holds Tasks*RecordsPerTask records).
	RecordsPerTask int `json:"records_per_task"`
	// MetaOps is the number of small metadata writes one metadata
	// flush on this dataset costs (chunk index scale).
	MetaOps int `json:"meta_ops,omitempty"`
}

// Phase is a named, optionally repeated op sequence. A non-empty Name
// records a phase mark at the start of every repetition; a single %d
// verb in the name expands to the repetition index.
type Phase struct {
	Name   string `json:"name,omitempty"`
	Repeat int    `json:"repeat,omitempty"` // default 1
	Ops    []Op   `json:"ops"`
}

// Op is one operation in a phase. Which parameter fields are legal
// depends on the kind; Validate rejects mismatches.
type Op struct {
	// Op is the operation kind: open, close, barrier, mark, compute,
	// seek, read, write, pread, pwrite (posix mode), write-records,
	// metadata, gather (h5 mode).
	Op string `json:"op"`
	// Bytes per call, for the sized posix ops.
	Bytes int64 `json:"bytes,omitempty"`
	// Count repeats a sized posix op as an inner per-rank loop
	// (default 1); the loop index is the offset expression's iter
	// term.
	Count int `json:"count,omitempty"`
	// Offset positions pread/pwrite/seek.
	Offset *Offset `json:"offset,omitempty"`
	// Dataset names the target of write-records, metadata, gather.
	Dataset string `json:"dataset,omitempty"`
	// Name is the mark label (mark op; %d expands to the phase
	// repetition index).
	Name string `json:"name,omitempty"`
	// Seconds is the mean simulated compute time (compute op), with
	// per-rank lognormal imbalance of shape Sigma.
	Seconds float64 `json:"seconds,omitempty"`
	Sigma   float64 `json:"sigma,omitempty"`
}

// Offset is the linear offset expression
//
//	base + per_rank*rank + per_iter*i + per_phase*rep
//
// where rank is the MPI rank, i the op's Count loop index, and rep
// the phase repetition index. All coefficients are non-negative, so
// every computed offset is too.
type Offset struct {
	Base     int64 `json:"base,omitempty"`
	PerRank  int64 `json:"per_rank,omitempty"`
	PerIter  int64 `json:"per_iter,omitempty"`
	PerPhase int64 `json:"per_phase,omitempty"`
}

// Grammar bounds. They keep any Validate-accepted spec cheap enough
// to simulate (the fuzz and generator suites run accepted specs) and
// its artifacts bounded.
const (
	// MaxNameLen bounds every name and path string in a spec.
	MaxNameLen = 256

	maxTasks       = 1 << 17
	maxPhases      = 256
	maxOpsPerPhase = 256
	maxRepeat      = 4096
	maxCount       = 1 << 20
	maxBytes       = int64(1) << 40
	maxOffsetCoeff = int64(1) << 42
	maxOffset      = int64(1) << 44
	maxDatasets    = 64
	maxRecsPerTask = 1 << 12
	maxMetaOps     = 1 << 12
	maxAlign       = int64(1) << 30
	maxStripes     = 1024
	maxSeconds     = 1e6
	maxSigma       = 4.0
	// maxEvents bounds the whole spec's estimated trace-event count —
	// the real guard against pathological-but-valid specs.
	maxEvents = 1 << 24
)

// opParams describes which Op fields an op kind uses: a validation
// table, so a spec cannot smuggle (and silently lose) parameters on
// an op that ignores them.
type opParams struct {
	sized   bool // Bytes, Count
	offset  bool // Offset
	dataset bool // Dataset
	mark    bool // Name
	compute bool // Seconds, Sigma
	posix   bool // legal in posix mode
	h5      bool // legal in h5 mode
}

var opKinds = map[string]opParams{
	"open":          {posix: true, h5: true},
	"close":         {posix: true, h5: true},
	"barrier":       {posix: true, h5: true},
	"mark":          {mark: true, posix: true, h5: true},
	"compute":       {compute: true, posix: true, h5: true},
	"seek":          {offset: true, posix: true},
	"read":          {sized: true, posix: true},
	"write":         {sized: true, posix: true},
	"pread":         {sized: true, offset: true, posix: true},
	"pwrite":        {sized: true, offset: true, posix: true},
	"write-records": {dataset: true, h5: true},
	"metadata":      {dataset: true, h5: true},
	"gather":        {dataset: true, h5: true},
}

// validName reports whether s is a legal workload/dataset name:
// non-empty, bounded, and safe as an artifact-file prefix.
func validName(s string) bool {
	if s == "" || len(s) > MaxNameLen {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// validMark reports whether s is a legal mark label: bounded,
// printable ASCII, and its only format verbs are at most one %d (the
// repetition index).
func validMark(s string) (ok, hasVerb bool) {
	if len(s) > MaxNameLen {
		return false, false
	}
	verbs := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c > 0x7e {
			return false, false
		}
		if c != '%' {
			continue
		}
		if i+1 >= len(s) || s[i+1] != 'd' {
			return false, false
		}
		verbs++
		i++
	}
	return verbs <= 1, verbs == 1
}

// Validate checks the spec against the grammar: every structural,
// range, and cross-reference rule a spec must satisfy to compile.
// Validate accepts exactly the specs Compile accepts.
func (s *Spec) Validate() error {
	_, err := Compile(s)
	return err
}

// validate is the structural half of compilation.
func (s *Spec) validate() error {
	if !validName(s.Name) {
		return fmt.Errorf("wldsl: invalid workload name %q (want 1-%d chars of [A-Za-z0-9._-])", s.Name, MaxNameLen)
	}
	if s.Tasks < 1 || s.Tasks > maxTasks {
		return fmt.Errorf("wldsl: %s: tasks %d out of range [1, %d]", s.Name, s.Tasks, maxTasks)
	}
	if len(s.Path) > MaxNameLen {
		return fmt.Errorf("wldsl: %s: path longer than %d bytes", s.Name, MaxNameLen)
	}
	if strings.ContainsRune(s.Path, 0) {
		return fmt.Errorf("wldsl: %s: path contains NUL", s.Name)
	}
	if s.StripeCount < 0 || s.StripeCount > maxStripes {
		return fmt.Errorf("wldsl: %s: stripe_count %d out of range [0, %d]", s.Name, s.StripeCount, maxStripes)
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("wldsl: %s: no phases", s.Name)
	}
	if len(s.Phases) > maxPhases {
		return fmt.Errorf("wldsl: %s: %d phases exceed %d", s.Name, len(s.Phases), maxPhases)
	}

	h5 := s.H5 != nil
	if !h5 {
		if len(s.Datasets) > 0 {
			return fmt.Errorf("wldsl: %s: datasets require the h5 file model", s.Name)
		}
		if s.Collective != nil {
			return fmt.Errorf("wldsl: %s: collective buffering requires the h5 file model", s.Name)
		}
	} else {
		if s.FilePerProcess {
			return fmt.Errorf("wldsl: %s: file_per_process is a posix-mode option", s.Name)
		}
		if s.H5.AlignBytes < 0 || s.H5.AlignBytes > maxAlign {
			return fmt.Errorf("wldsl: %s: h5 align_bytes %d out of range [0, %d]", s.Name, s.H5.AlignBytes, maxAlign)
		}
		if len(s.Datasets) == 0 {
			return fmt.Errorf("wldsl: %s: h5 mode declares no datasets", s.Name)
		}
		if len(s.Datasets) > maxDatasets {
			return fmt.Errorf("wldsl: %s: %d datasets exceed %d", s.Name, len(s.Datasets), maxDatasets)
		}
	}
	if c := s.Collective; c != nil {
		if c.Aggregators < 1 || c.Aggregators > s.Tasks {
			return fmt.Errorf("wldsl: %s: aggregators %d out of range [1, tasks=%d]", s.Name, c.Aggregators, s.Tasks)
		}
		if s.Tasks%c.Aggregators != 0 {
			return fmt.Errorf("wldsl: %s: tasks %d must divide evenly among %d aggregators", s.Name, s.Tasks, c.Aggregators)
		}
	}

	seen := make(map[string]bool, len(s.Datasets))
	for i, d := range s.Datasets {
		if !validName(d.Name) {
			return fmt.Errorf("wldsl: %s: dataset %d has invalid name %q", s.Name, i, d.Name)
		}
		if seen[d.Name] {
			return fmt.Errorf("wldsl: %s: duplicate dataset %q", s.Name, d.Name)
		}
		seen[d.Name] = true
		if d.RecordBytes < 1 || d.RecordBytes > maxBytes {
			return fmt.Errorf("wldsl: %s: dataset %q record_bytes %d out of range [1, %d]", s.Name, d.Name, d.RecordBytes, maxBytes)
		}
		if d.RecordsPerTask < 1 || d.RecordsPerTask > maxRecsPerTask {
			return fmt.Errorf("wldsl: %s: dataset %q records_per_task %d out of range [1, %d]", s.Name, d.Name, d.RecordsPerTask, maxRecsPerTask)
		}
		if d.MetaOps < 0 || d.MetaOps > maxMetaOps {
			return fmt.Errorf("wldsl: %s: dataset %q meta_ops %d out of range [0, %d]", s.Name, d.Name, d.MetaOps, maxMetaOps)
		}
	}

	opens := 0
	for pi := range s.Phases {
		ph := &s.Phases[pi]
		if ph.Repeat < 0 || ph.Repeat > maxRepeat {
			return fmt.Errorf("wldsl: %s: phase %d repeat %d out of range [0, %d]", s.Name, pi, ph.Repeat, maxRepeat)
		}
		repeat := ph.Repeat
		if repeat == 0 {
			repeat = 1
		}
		if ph.Name != "" {
			ok, hasVerb := validMark(ph.Name)
			if !ok {
				return fmt.Errorf("wldsl: %s: phase %d has invalid name %q", s.Name, pi, ph.Name)
			}
			if repeat > 1 && !hasVerb {
				return fmt.Errorf("wldsl: %s: phase %d repeats %d times but name %q has no %%d verb (marks would collide)", s.Name, pi, repeat, ph.Name)
			}
		}
		if len(ph.Ops) == 0 {
			return fmt.Errorf("wldsl: %s: phase %d has no ops", s.Name, pi)
		}
		if len(ph.Ops) > maxOpsPerPhase {
			return fmt.Errorf("wldsl: %s: phase %d has %d ops, exceeding %d", s.Name, pi, len(ph.Ops), maxOpsPerPhase)
		}
		for oi := range ph.Ops {
			op := &ph.Ops[oi]
			if err := s.validateOp(pi, oi, op, h5, repeat); err != nil {
				return err
			}
			if op.Op == "open" {
				opens++
				if repeat > 1 {
					return fmt.Errorf("wldsl: %s: phase %d repeats but contains an open op", s.Name, pi)
				}
			}
		}
	}
	if opens != 1 {
		return fmt.Errorf("wldsl: %s: want exactly one open op, have %d", s.Name, opens)
	}
	return nil
}

func (s *Spec) validateOp(pi, oi int, op *Op, h5 bool, repeat int) error {
	at := func(format string, args ...interface{}) error {
		return fmt.Errorf("wldsl: %s: phase %d op %d (%s): %s", s.Name, pi, oi, op.Op, fmt.Sprintf(format, args...))
	}
	params, ok := opKinds[op.Op]
	if !ok {
		return fmt.Errorf("wldsl: %s: phase %d op %d: unknown op %q", s.Name, pi, oi, op.Op)
	}
	if h5 && !params.h5 {
		return at("not legal in h5 mode")
	}
	if !h5 && !params.posix {
		return at("requires the h5 file model")
	}

	if !params.sized {
		if op.Bytes != 0 {
			return at("bytes is not a parameter of this op")
		}
		if op.Count != 0 {
			return at("count is not a parameter of this op")
		}
	} else {
		if op.Bytes < 1 || op.Bytes > maxBytes {
			return at("bytes %d out of range [1, %d]", op.Bytes, maxBytes)
		}
		if op.Count < 0 || op.Count > maxCount {
			return at("count %d out of range [0, %d]", op.Count, maxCount)
		}
	}
	if !params.offset && op.Offset != nil {
		return at("offset is not a parameter of this op")
	}
	if off := op.Offset; off != nil {
		count := op.Count
		if count == 0 {
			count = 1
		}
		for _, c := range []struct {
			name string
			v    int64
		}{{"base", off.Base}, {"per_rank", off.PerRank}, {"per_iter", off.PerIter}, {"per_phase", off.PerPhase}} {
			if c.v < 0 || c.v > maxOffsetCoeff {
				return at("offset %s %d out of range [0, %d] (negative offsets and sizes are rejected)", c.name, c.v, maxOffsetCoeff)
			}
		}
		// The largest offset the expression can reach; coefficients
		// are bounded well below overflow so this sum is exact.
		reach := off.Base + off.PerRank*int64(s.Tasks-1) +
			off.PerIter*int64(count-1) + off.PerPhase*int64(repeat-1)
		if reach+op.Bytes > maxOffset {
			return at("offset expression reaches %d, beyond %d", reach+op.Bytes, maxOffset)
		}
	}
	if !params.dataset {
		if op.Dataset != "" {
			return at("dataset is not a parameter of this op")
		}
	} else {
		found := false
		for _, d := range s.Datasets {
			if d.Name == op.Dataset {
				found = true
				break
			}
		}
		if !found {
			return at("unknown dataset %q", op.Dataset)
		}
	}
	if !params.mark {
		if op.Name != "" {
			return at("name is not a parameter of this op")
		}
	} else {
		ok, hasVerb := validMark(op.Name)
		if !ok || op.Name == "" {
			return at("invalid mark name %q", op.Name)
		}
		if repeat > 1 && !hasVerb {
			return at("phase repeats %d times but mark %q has no %%d verb", repeat, op.Name)
		}
	}
	if !params.compute {
		if op.Seconds != 0 || op.Sigma != 0 {
			return at("seconds/sigma are not parameters of this op")
		}
	} else {
		if math.IsNaN(op.Seconds) || math.IsInf(op.Seconds, 0) || op.Seconds < 0 || op.Seconds > maxSeconds {
			return at("seconds %v out of range [0, %v] (NaN/Inf rejected)", op.Seconds, float64(maxSeconds))
		}
		if math.IsNaN(op.Sigma) || math.IsInf(op.Sigma, 0) || op.Sigma < 0 || op.Sigma > maxSigma {
			return at("sigma %v out of range [0, %v] (NaN/Inf rejected)", op.Sigma, maxSigma)
		}
	}
	return nil
}
