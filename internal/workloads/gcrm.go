package workloads

import (
	"fmt"

	"ensembleio/internal/cluster"
	"ensembleio/internal/faults"
	"ensembleio/internal/ipmio"
)

// GCRMConfig parametrizes the Global Cloud Resolving Model I/O kernel
// of §V: an H5Part-style dump of model variables to one shared file.
// The baseline pattern (per the paper) is three single-record
// variables, each followed by a barrier, then three six-record
// variables, followed by another barrier; records are 1.6 MB.
//
// The three progressive optimizations map to fields:
//
//	Figure 6d-f: Aggregators = 80   (collective buffering, stage two)
//	Figure 6g-i: + Align = true     (pad records to 1 MB boundaries)
//	Figure 6j-l: + AggregateMetadata = true (one deferred 1 MB write)
type GCRMConfig struct {
	Machine cluster.Profile
	// Tasks is the number of model tasks whose records are dumped
	// (paper: 10,240). Record ownership is defined at this
	// granularity regardless of how many ranks do the writing.
	Tasks int
	// Aggregators, when non-zero, runs the kernel with that many
	// writer ranks, each writing Tasks/Aggregators tasks' records
	// (the paper tested collective buffering "stage two only" by
	// running the kernel with 80 tasks and 128x the write calls).
	// When TwoStage is also set, all Tasks ranks run and ship their
	// records to the aggregators over MPI first (stage one + two).
	Aggregators int
	TwoStage    bool
	// Align pads records to 1 MB boundaries via the HDF5 alignment
	// property.
	Align bool
	// AggregateMetadata defers metadata into one large write at close.
	AggregateMetadata bool

	// RecordBytes per record (paper: 1.6 MB).
	RecordBytes int64
	// SingleVars and MultiVars describe the dump shape.
	SingleVars int // variables with 1 record per task (paper: 3)
	MultiVars  int // variables with MultiRecs records per task (paper: 3)
	MultiRecs  int // records per task per multi variable (paper: 6)
	// MetaOpsPerVar is the number of small metadata writes flushed
	// after each variable (chunk index scale; ~80 ops x 2 KB x 6 vars
	// ~= 1 MB total, matching the paper's aggregated single 1 MB).
	MetaOpsPerVar int

	// Faults, when non-nil, is the degradation scenario injected into
	// the machine before the run (see internal/faults).
	Faults *faults.Scenario
	Seed   int64
	Mode   ipmio.Mode
	Path   string
	// Telemetry enables the run's deterministic metric/span sink
	// (Run.Telemetry, Run.Spans).
	Telemetry bool
}

func (c *GCRMConfig) defaults() {
	if c.Tasks == 0 {
		c.Tasks = 10240
	}
	if c.RecordBytes == 0 {
		c.RecordBytes = 1600000
	}
	if c.SingleVars == 0 {
		c.SingleVars = 3
	}
	if c.MultiVars == 0 {
		c.MultiVars = 3
	}
	if c.MultiRecs == 0 {
		c.MultiRecs = 6
	}
	if c.MetaOpsPerVar == 0 {
		c.MetaOpsPerVar = 80
	}
	if c.Mode == 0 {
		c.Mode = ipmio.TraceMode
	}
	if c.Path == "" {
		c.Path = "/scratch/gcrm.h5"
	}
}

// TotalRecords returns the number of records in one dump.
func (c *GCRMConfig) TotalRecords() int {
	return c.Tasks * (c.SingleVars + c.MultiVars*c.MultiRecs)
}

// GCRMSpec returns the spec of the kernel cfg describes: one h5
// dataset per variable, one phase per variable (stage-one gather, the
// writers' record writes, the metadata flush, a barrier), and a close
// phase. Collective buffering, alignment, and metadata aggregation are
// spec options, so every rung of the optimization ladder shares the
// phase list.
func GCRMSpec(cfg GCRMConfig) *Spec {
	cfg.defaults()
	if cfg.Aggregators > 0 && cfg.Tasks%cfg.Aggregators != 0 {
		panic("workloads: GCRM tasks must divide evenly among aggregators")
	}
	s := &Spec{
		Tasks: cfg.Tasks,
		Path:  cfg.Path,
		H5:    &H5{AggregateMetadata: cfg.AggregateMetadata},
	}
	s.Name = "gcrm-baseline"
	switch {
	case cfg.AggregateMetadata:
		s.Name = "gcrm-metaagg"
	case cfg.Align:
		s.Name = "gcrm-aligned"
	case cfg.Aggregators > 0:
		s.Name = "gcrm-collective"
	}
	if cfg.Align {
		s.H5.AlignBytes = 1e6
	}
	if cfg.Aggregators > 0 {
		s.Collective = &Collective{Aggregators: cfg.Aggregators, TwoStage: cfg.TwoStage}
	}

	s.Phases = []Phase{{Ops: []Op{{Op: "open"}, {Op: "barrier"}}}} // synchronize after the create storm
	variable := func(ds, mark string, recsPerTask int) {
		s.Datasets = append(s.Datasets, Dataset{
			Name: ds, RecordBytes: cfg.RecordBytes, RecordsPerTask: recsPerTask, MetaOps: cfg.MetaOpsPerVar,
		})
		s.Phases = append(s.Phases, Phase{Name: mark, Ops: []Op{
			{Op: "gather", Dataset: ds},
			{Op: "write-records", Dataset: ds},
			{Op: "metadata", Dataset: ds},
			{Op: "barrier"},
		}})
	}
	for v := 0; v < cfg.SingleVars; v++ {
		variable(fmt.Sprintf("var1_%d", v), fmt.Sprintf("single-var-%d", v), 1)
	}
	for v := 0; v < cfg.MultiVars; v++ {
		variable(fmt.Sprintf("var%d_%d", cfg.MultiRecs, v), fmt.Sprintf("multi-var-%d", v), cfg.MultiRecs)
	}
	s.Phases = append(s.Phases, Phase{Name: "close", Ops: []Op{{Op: "close"}}})
	return s
}

// RunGCRM executes the kernel and returns its artifact.
func RunGCRM(cfg GCRMConfig) *Run {
	cfg.defaults()
	return mustRunSpec(GCRMSpec(cfg), RunConfig{
		Machine: cfg.Machine, Seed: cfg.Seed, Mode: cfg.Mode,
		Faults: cfg.Faults, Telemetry: cfg.Telemetry,
	})
}
