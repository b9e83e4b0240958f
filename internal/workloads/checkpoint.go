package workloads

import (
	"fmt"

	"ensembleio/internal/cluster"
	"ensembleio/internal/ipmio"
	"ensembleio/internal/mpi"
	"ensembleio/internal/posixio"
	"ensembleio/internal/sim"
)

// CheckpointConfig parametrizes the generic checkpoint/restart cycle
// that motivates the paper's introduction: "HPC I/O in this
// environment frequently involves large-scale data movement, such as
// check-pointing the state of the running application". Each step the
// application computes, then every task dumps its state and waits at a
// barrier — so checkpoint time is governed by the slowest task's
// write, exactly the slowest-of-N order statistic the ensemble
// methodology targets.
type CheckpointConfig struct {
	Machine cluster.Profile
	Tasks   int
	// StateBytes is each task's checkpoint size (default 256 MB).
	StateBytes int64
	// TransferBytes per write call (default: whole state; smaller
	// values exercise the Figure 2 splitting optimization).
	TransferBytes int64
	// Steps is the number of compute+checkpoint cycles (default 4).
	Steps int
	// ComputeSec is the mean simulated compute time per step (with
	// per-task lognormal imbalance); default 20 s.
	ComputeSec float64
	// FilePerProcess writes per-task checkpoint files instead of a
	// unique region of one shared file per step.
	FilePerProcess bool

	Seed int64
	Mode ipmio.Mode
	Path string
	// Telemetry enables the run's deterministic metric/span sink
	// (Run.Telemetry, Run.Spans).
	Telemetry bool
}

func (c *CheckpointConfig) defaults() {
	if c.Tasks == 0 {
		c.Tasks = 256
	}
	if c.StateBytes == 0 {
		c.StateBytes = 256e6
	}
	if c.TransferBytes == 0 {
		c.TransferBytes = c.StateBytes
	}
	if c.Steps == 0 {
		c.Steps = 4
	}
	if c.ComputeSec == 0 {
		c.ComputeSec = 20
	}
	if c.Mode == 0 {
		c.Mode = ipmio.TraceMode
	}
	if c.Path == "" {
		c.Path = "/scratch/ckpt"
	}
}

// CheckpointResult extends Run with the per-step I/O cost breakdown.
type CheckpointResult struct {
	*Run
	// StepIOSec is the wall time of each checkpoint phase (barrier to
	// barrier, compute excluded).
	StepIOSec []float64
	// ComputeSecTotal is the simulated compute time (per task mean).
	ComputeSecTotal float64
}

// IOFraction is the share of the run spent checkpointing.
func (r *CheckpointResult) IOFraction() float64 {
	io := 0.0
	for _, s := range r.StepIOSec {
		io += s
	}
	if r.Wall <= 0 {
		return 0
	}
	return io / float64(r.Wall)
}

// RunCheckpoint executes the cycle and returns its artifact.
func RunCheckpoint(cfg CheckpointConfig) *CheckpointResult {
	cfg.defaults()
	if cfg.StateBytes%cfg.TransferBytes != 0 {
		panic("workloads: checkpoint state must be a multiple of the transfer size")
	}
	k := int(cfg.StateBytes / cfg.TransferBytes)

	j := newJob(cfg.Machine, cfg.Tasks, cfg.Seed, cfg.Mode, cfg.Telemetry)
	rng := sim.NewRNG(cfg.Seed ^ 0xc4e9)
	imbalance := make([]float64, cfg.Tasks)
	for i := range imbalance {
		imbalance[i] = rng.Lognormal(0, 0.05)
	}

	stepStart := make([]sim.Time, cfg.Steps)
	stepEnd := make([]sim.Time, cfg.Steps)

	j.launch(func(r *mpi.Rank, tr *ipmio.Tracer) {
		var fd int
		var err error
		if !cfg.FilePerProcess {
			fd, err = tr.Open(r.P, cfg.Path, posixio.OCreat|posixio.OWronly)
			if err != nil {
				panic(err)
			}
		}
		r.Barrier()
		for step := 0; step < cfg.Steps; step++ {
			// Compute phase: per-task imbalance makes some tasks reach
			// the checkpoint late, as real solvers do.
			r.P.Sleep(sim.Duration(cfg.ComputeSec * imbalance[r.ID]))
			r.Barrier()
			j.mark(r, fmt.Sprintf("checkpoint-%d", step))
			if r.ID == 0 {
				stepStart[step] = r.P.Now()
			}
			f := fd
			if cfg.FilePerProcess {
				f, err = tr.Open(r.P, fmt.Sprintf("%s.%d.%05d", cfg.Path, step, r.ID), posixio.OCreat|posixio.OWronly)
				if err != nil {
					panic(err)
				}
			}
			base := int64(r.ID) * cfg.StateBytes
			if cfg.FilePerProcess {
				base = 0
			}
			for i := 0; i < k; i++ {
				if _, err := tr.Pwrite(r.P, f, base+int64(i)*cfg.TransferBytes, cfg.TransferBytes); err != nil {
					panic(err)
				}
			}
			if cfg.FilePerProcess {
				if err := tr.Close(r.P, f); err != nil {
					panic(err)
				}
			}
			r.Barrier()
			if r.ID == 0 {
				stepEnd[step] = r.P.Now()
			}
		}
		if !cfg.FilePerProcess {
			if err := tr.Close(r.P, fd); err != nil {
				panic(err)
			}
		}
	})

	res := &CheckpointResult{
		Run: &Run{
			Name:       fmt.Sprintf("checkpoint-%dx%dMB-k%d", cfg.Tasks, cfg.StateBytes/1e6, k),
			Tasks:      cfg.Tasks,
			Collector:  j.col,
			Wall:       j.wall,
			TotalBytes: int64(cfg.Tasks) * cfg.StateBytes * int64(cfg.Steps),
		},
		ComputeSecTotal: cfg.ComputeSec * float64(cfg.Steps),
	}
	for step := 0; step < cfg.Steps; step++ {
		res.StepIOSec = append(res.StepIOSec, float64(stepEnd[step]-stepStart[step]))
	}
	return res
}
