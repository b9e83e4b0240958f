package workloads

import (
	"fmt"

	"ensembleio/internal/cluster"
	"ensembleio/internal/faults"
	"ensembleio/internal/ipmio"
)

// IORConfig parametrizes the Interleaved-Or-Random micro-benchmark as
// used in §III: every task writes BlockBytes to its unique offset in a
// shared file, in BlockBytes/TransferBytes successive write calls,
// followed by a barrier; the whole phase repeats Reps times.
type IORConfig struct {
	Machine cluster.Profile
	Tasks   int
	// BlockBytes per task per repetition (paper: 512 MB).
	BlockBytes int64
	// TransferBytes per write call (512, 256, 128, 64 MB in Fig 1-2).
	TransferBytes int64
	// Reps is the number of synchronous phases (paper: 5).
	Reps int
	// ReadBack adds a final phase in which every task reads its block
	// back in the same transfer sizes (IOR's read test).
	ReadBack bool
	// FilePerProcess gives each task its own file instead of a unique
	// region of one shared file (IOR's -F mode). File-per-process
	// avoids all shared-file extent-lock contention at the cost of a
	// metadata storm and N files to manage.
	FilePerProcess bool
	// StripeCount overrides the stripe count of newly created files
	// (0 = stripe over all OSTs). File-per-process straggler studies
	// use 1 to pin each task's file to a single OST.
	StripeCount int
	// Faults, when non-nil, is the degradation scenario injected into
	// the machine before the run (see internal/faults).
	Faults *faults.Scenario
	// Seed selects the run (different seeds = different runs of the
	// same experiment).
	Seed int64
	// Mode selects trace and/or profile collection.
	Mode ipmio.Mode
	// Path of the shared file.
	Path string
	// Telemetry enables the run's deterministic metric/span sink
	// (Run.Telemetry, Run.Spans).
	Telemetry bool
}

func (c *IORConfig) defaults() {
	if c.BlockBytes == 0 {
		c.BlockBytes = 512e6
	}
	if c.TransferBytes == 0 {
		c.TransferBytes = c.BlockBytes
	}
	if c.Reps == 0 {
		c.Reps = 1
	}
	if c.Mode == 0 {
		c.Mode = ipmio.TraceMode
	}
	if c.Path == "" {
		c.Path = "/scratch/ior.dat"
	}
	if c.Tasks == 0 {
		c.Tasks = 1024
	}
}

// IORSpec returns the spec of the benchmark cfg describes: an open
// storm and a barrier, Reps write phases of BlockBytes/TransferBytes
// transfers per task, an optional read-back phase, and a close.
func IORSpec(cfg IORConfig) *Spec {
	cfg.defaults()
	if cfg.BlockBytes%cfg.TransferBytes != 0 {
		panic("workloads: IOR block must be a multiple of the transfer size")
	}
	k := int(cfg.BlockBytes / cfg.TransferBytes)
	name := fmt.Sprintf("ior-%dx%dMB-t%dMB", cfg.Tasks, cfg.BlockBytes/1e6, cfg.TransferBytes/1e6)
	if cfg.FilePerProcess {
		name += "-fpp"
	}
	// Each task's block: a unique region of the shared file, or the
	// start of its own file.
	off := Offset{PerRank: cfg.BlockBytes, PerIter: cfg.TransferBytes}
	if cfg.FilePerProcess {
		off.PerRank = 0
	}
	phases := []Phase{
		// Synchronize after the open storm so phase marks precede all
		// phase I/O (IOR also barriers before its timed section).
		{Ops: []Op{{Op: "open"}, {Op: "barrier"}}},
		{Name: "write-phase-%d", Repeat: cfg.Reps, Ops: []Op{
			{Op: "pwrite", Bytes: cfg.TransferBytes, Count: k, Offset: &off},
			{Op: "barrier"},
		}},
	}
	if cfg.ReadBack {
		rd := off
		phases = append(phases, Phase{Name: "read-phase", Ops: []Op{
			{Op: "pread", Bytes: cfg.TransferBytes, Count: k, Offset: &rd},
			{Op: "barrier"},
		}})
	}
	phases = append(phases, Phase{Ops: []Op{{Op: "close"}}})
	return &Spec{
		Name:           name,
		Tasks:          cfg.Tasks,
		Path:           cfg.Path,
		FilePerProcess: cfg.FilePerProcess,
		StripeCount:    cfg.StripeCount,
		Phases:         phases,
	}
}

// RunIOR executes the benchmark and returns its artifact.
func RunIOR(cfg IORConfig) *Run {
	cfg.defaults()
	run := mustRunSpec(IORSpec(cfg), RunConfig{
		Machine: cfg.Machine, Seed: cfg.Seed, Mode: cfg.Mode,
		Faults: cfg.Faults, Telemetry: cfg.Telemetry,
	})
	if err := checkIORReadBack(run.Collector, cfg.TransferBytes); err != nil {
		panic(err)
	}
	return run
}

// checkIORReadBack fails a read-back call that returned fewer bytes
// than it asked for. A short read at end of file is legal POSIX, so
// the interpreter traces it and moves on; IOR reads back blocks it has
// just written, so for IOR a short read is a model bug. The check runs
// over the traced read events (a profile-only run retains none).
func checkIORReadBack(col *ipmio.Collector, transfer int64) error {
	for i := range col.Events {
		if e := &col.Events[i]; e.Op == ipmio.OpRead && e.Bytes != transfer {
			return fmt.Errorf("ior readback: rank %d read %d bytes at offset %d, want %d", e.Rank, e.Bytes, e.Offset, transfer)
		}
	}
	return nil
}
