package workloads

import (
	"fmt"

	"ensembleio/internal/cluster"
	"ensembleio/internal/faults"
	"ensembleio/internal/ipmio"
)

// MADbenchConfig parametrizes the MADbench I/O kernel of §IV with
// computation and communication turned off, leaving the pure I/O
// pattern of the out-of-core CMB solver:
//
//	S phase: 8 x ( write matrix, barrier )
//	W phase: 8 x ( seek, read matrix, seek, write matrix, barrier )
//	C phase: 8 x ( read matrix, barrier )
//
// Each task owns a contiguous region of the shared file holding its
// Matrices matrices, each padded to the alignment boundary — the
// padding gap is what turns the W-phase reads into a constant-stride
// pattern that arms the file system's strided read-ahead detection.
type MADbenchConfig struct {
	Machine cluster.Profile
	Tasks   int
	// Matrices per task (paper: 8).
	Matrices int
	// MatrixBytes per matrix (paper: ~300 MB; deliberately not a
	// whole number of stripes, as a real pixel-matrix size is not).
	MatrixBytes int64
	// AlignBytes pads each matrix slot (paper: 1 MB).
	AlignBytes int64
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

func (c *MADbenchConfig) defaults() {
	if c.Tasks == 0 {
		c.Tasks = 256
	}
	if c.Matrices == 0 {
		c.Matrices = 8
	}
	if c.MatrixBytes == 0 {
		c.MatrixBytes = 300_400_000 // pads to 301 MB slots at 1 MB alignment
	}
	if c.AlignBytes == 0 {
		c.AlignBytes = 1e6
	}
	if c.Mode == 0 {
		c.Mode = ipmio.TraceMode
	}
	if c.Path == "" {
		c.Path = "/scratch/madbench.dat"
	}
}

// Stride returns the aligned matrix slot size (after defaulting, so it
// is safe to call on a not-yet-run config).
func (c *MADbenchConfig) Stride() int64 {
	cc := *c
	cc.defaults()
	return (cc.MatrixBytes + cc.AlignBytes - 1) / cc.AlignBytes * cc.AlignBytes
}

// MADbenchSpec returns the spec of the kernel cfg describes: each
// task's matrices live in consecutive aligned slots of its region of
// the shared file, written in the S phase, read and rewritten in the
// W phase, and read again in the C phase, with a barrier after every
// matrix.
func MADbenchSpec(cfg MADbenchConfig) *Spec {
	cfg.defaults()
	stride := cfg.Stride()
	// slot is matrix rep's aligned slot in the rank's region.
	slot := func() *Offset {
		return &Offset{PerRank: int64(cfg.Matrices) * stride, PerPhase: stride}
	}
	return &Spec{
		Name:  fmt.Sprintf("madbench-%d", cfg.Tasks),
		Tasks: cfg.Tasks,
		Path:  cfg.Path,
		Phases: []Phase{
			{Ops: []Op{{Op: "open"}, {Op: "barrier"}}}, // synchronize after the open storm
			// S: generate and write each matrix.
			{Name: "S-write-%d", Repeat: cfg.Matrices, Ops: []Op{
				{Op: "pwrite", Bytes: cfg.MatrixBytes, Offset: slot()},
				{Op: "barrier"},
			}},
			// W: read each matrix back, multiply (elided), write result.
			{Name: "W-rw-%d", Repeat: cfg.Matrices, Ops: []Op{
				{Op: "seek", Offset: slot()},
				{Op: "read", Bytes: cfg.MatrixBytes},
				{Op: "seek", Offset: slot()},
				{Op: "write", Bytes: cfg.MatrixBytes},
				{Op: "barrier"},
			}},
			// C: read the results and accumulate the trace (elided).
			{Name: "C-read-%d", Repeat: cfg.Matrices, Ops: []Op{
				{Op: "seek", Offset: slot()},
				{Op: "read", Bytes: cfg.MatrixBytes},
				{Op: "barrier"},
			}},
			{Ops: []Op{{Op: "close"}}},
		},
	}
}

// RunMADbench executes the kernel and returns its artifact.
func RunMADbench(cfg MADbenchConfig) *Run {
	cfg.defaults()
	run := mustRunSpec(MADbenchSpec(cfg), RunConfig{
		Machine: cfg.Machine, Seed: cfg.Seed, Mode: cfg.Mode,
		Faults: cfg.Faults, Telemetry: cfg.Telemetry,
	})
	if err := checkMADbenchTransfers(run.Collector); err != nil {
		panic(err)
	}
	return run
}

// checkMADbenchTransfers fails a matrix read or write that moved no
// bytes. The interpreter accepts a zero-length read at end of file as
// legal POSIX; every MADbench transfer moves a whole matrix through a
// slot the S phase wrote, so for MADbench one is a model bug. The
// check runs over the traced events (a profile-only run retains
// none).
func checkMADbenchTransfers(col *ipmio.Collector) error {
	for i := range col.Events {
		e := &col.Events[i]
		if (e.Op == ipmio.OpRead || e.Op == ipmio.OpWrite) && e.Bytes == 0 {
			return fmt.Errorf("workloads: madbench zero-length %s on rank %d at offset %d", e.Op, e.Rank, e.Offset)
		}
	}
	return nil
}
