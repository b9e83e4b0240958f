package workloads

import (
	"fmt"
	"strings"

	"ensembleio/internal/cluster"
	"ensembleio/internal/ipmio"
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

// CheckpointSpec returns the spec of the cycle cfg describes: an
// open and a barrier, Steps repetitions of compute (with per-task
// imbalance, so some tasks reach the checkpoint late, as real solvers
// do), a barrier, a checkpoint mark, every task's state written to its
// unique region of the shared file in StateBytes/TransferBytes
// transfers, and a barrier; then a close.
func CheckpointSpec(cfg CheckpointConfig) *Spec {
	cfg.defaults()
	if cfg.StateBytes%cfg.TransferBytes != 0 {
		panic("workloads: checkpoint state must be a multiple of the transfer size")
	}
	k := int(cfg.StateBytes / cfg.TransferBytes)
	return &Spec{
		Name:  fmt.Sprintf("checkpoint-%dx%dMB-k%d", cfg.Tasks, cfg.StateBytes/1e6, k),
		Tasks: cfg.Tasks,
		Path:  cfg.Path,
		Phases: []Phase{
			{Ops: []Op{{Op: "open"}, {Op: "barrier"}}},
			{Name: "compute-%d", Repeat: cfg.Steps, Ops: []Op{
				{Op: "compute", Seconds: cfg.ComputeSec, Sigma: 0.05},
				{Op: "barrier"},
				{Op: "mark", Name: checkpointMark + "%d"},
				{Op: "pwrite", Bytes: cfg.TransferBytes, Count: k,
					Offset: &Offset{PerRank: cfg.StateBytes, PerIter: cfg.TransferBytes}},
				{Op: "barrier"},
			}},
			{Name: "close", Ops: []Op{{Op: "close"}}},
		},
	}
}

// checkpointMark prefixes the mark rank 0 records as it leaves the
// barrier that opens each checkpoint.
const checkpointMark = "checkpoint-"

// RunCheckpoint executes the cycle and returns its artifact. Step s's
// I/O time runs from the checkpoint-s mark to the next mark (the next
// step's compute, or the close): both are rank 0's barrier exits.
func RunCheckpoint(cfg CheckpointConfig) *CheckpointResult {
	cfg.defaults()
	run := mustRunSpec(CheckpointSpec(cfg), RunConfig{
		Machine: cfg.Machine, Seed: cfg.Seed, Mode: cfg.Mode, Telemetry: cfg.Telemetry,
	})
	res := &CheckpointResult{Run: run, ComputeSecTotal: cfg.ComputeSec * float64(cfg.Steps)}
	marks := run.Collector.Marks
	for i, m := range marks {
		if strings.HasPrefix(m.Name, checkpointMark) {
			res.StepIOSec = append(res.StepIOSec, float64(marks[i+1].T-m.T))
		}
	}
	return res
}
