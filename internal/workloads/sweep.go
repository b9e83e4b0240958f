package workloads

import (
	"ensembleio/internal/cluster"
	//lint:allow(simpurity) runpool fans whole independent seeded runs; parallelism stays above the per-run sim layer
	"ensembleio/internal/runpool"
)

// Parameter sweeps: the experiment shapes the paper iterates — the
// Figure 2 transfer-size sweep and the §V writer-count sweep — as
// reusable drivers. cmd/paperfig and the benchmarks build on these.
//
// Each sweep point averages several independent seeded runs; the runs
// are fanned across runpool workers and reduced in submission order,
// so the output (down to the serialized bytes of every trace) is
// identical at any worker count. See DESIGN.md §"Parallel execution
// model".

// TransferPoint is one point of a transfer-size sweep.
type TransferPoint struct {
	K             int   // calls per block
	TransferBytes int64 // bytes per call
	// MeanRateMBps averages the job-level rate over the seeds.
	MeanRateMBps float64
	// Runs holds one run per seed (for deeper analysis).
	Runs []*Run
}

// IORTransferSweep runs the Figure 2 experiment: the base
// configuration with its block split into each k of ks, averaged over
// the given seeds. The base's TransferBytes is ignored. The (k, seed)
// runs execute on at most workers OS workers (workers <= 0 means all
// cores, 1 means sequential). progress, when non-nil, observes live
// completion counts (see runpool.Progress); it sees only counts, so
// the results and serialized artifacts are byte-identical with or
// without it.
func IORTransferSweep(base IORConfig, ks []int, seeds []int64, workers int, progress runpool.Progress) []TransferPoint {
	base.defaults()
	type job struct {
		k    int
		seed int64
	}
	jobs := make([]job, 0, len(ks)*len(seeds))
	for _, k := range ks {
		for _, seed := range seeds {
			jobs = append(jobs, job{k, seed})
		}
	}
	//lint:allow(detflow) runpool fans whole independent seeded runs; each run stays on its own lock-step schedule, so worker count and scheduling cannot reach the artifacts
	runs := runpool.MapProgress(workers, jobs, progress, func(_ int, j job) *Run {
		cfg := base
		cfg.TransferBytes = base.BlockBytes / int64(j.k)
		cfg.Seed = j.seed
		return RunIOR(cfg)
	})

	// Ordered reduction: fold results by job index, exactly the
	// sequence the sequential loop produced.
	var out []TransferPoint
	i := 0
	for _, k := range ks {
		pt := TransferPoint{K: k, TransferBytes: base.BlockBytes / int64(k)}
		sum := 0.0
		for range seeds {
			run := runs[i]
			i++
			pt.Runs = append(pt.Runs, run)
			sum += run.AggregateMBps()
		}
		if len(seeds) > 0 {
			pt.MeanRateMBps = sum / float64(len(seeds))
		}
		out = append(out, pt)
	}
	return out
}

// WriterPoint is one point of a writer-count sweep.
type WriterPoint struct {
	Writers int
	// WallSec is the time to move the (fixed) total volume, averaged
	// over the sweep's seeds (a single run's wall is hostage to one
	// unlucky straggler).
	WallSec float64
	Runs    []*Run
}

// IORWriterSweep runs the §V saturation experiment: a fixed total
// volume (totalTransfers x transferBytes) divided among each writer
// count, each task issuing whole transfers and walls averaged over the
// seeds. Counts that do not divide the work evenly get the rounded-up
// share. workers and progress are as for IORTransferSweep.
func IORWriterSweep(prof cluster.Profile, counts []int, totalTransfers int, transferBytes int64, seeds []int64, workers int, progress runpool.Progress) []WriterPoint {
	type job struct {
		writers int
		seed    int64
	}
	jobs := make([]job, 0, len(counts)*len(seeds))
	for _, n := range counts {
		for _, seed := range seeds {
			jobs = append(jobs, job{n, seed})
		}
	}
	//lint:allow(detflow) runpool fans whole independent seeded runs; each run stays on its own lock-step schedule, so worker count and scheduling cannot reach the artifacts
	runs := runpool.MapProgress(workers, jobs, progress, func(_ int, j job) *Run {
		per := (totalTransfers + j.writers - 1) / j.writers
		return RunIOR(IORConfig{
			Machine:       prof,
			Tasks:         j.writers,
			BlockBytes:    int64(per) * transferBytes,
			TransferBytes: transferBytes,
			Reps:          1,
			Seed:          j.seed,
		})
	})

	var out []WriterPoint
	i := 0
	for _, n := range counts {
		pt := WriterPoint{Writers: n}
		sum := 0.0
		for range seeds {
			run := runs[i]
			i++
			pt.Runs = append(pt.Runs, run)
			sum += float64(run.Wall)
		}
		if len(seeds) > 0 {
			pt.WallSec = sum / float64(len(seeds))
		}
		out = append(out, pt)
	}
	return out
}

// SaturationPoint returns the smallest writer count whose wall time is
// within slack (e.g. 1.5) of the best point's, and that best wall.
func SaturationPoint(points []WriterPoint, slack float64) (writers int, bestWall float64) {
	if len(points) == 0 {
		return 0, 0
	}
	best := points[0].WallSec
	for _, p := range points[1:] {
		if p.WallSec < best {
			best = p.WallSec
		}
	}
	for _, p := range points {
		if p.WallSec <= slack*best {
			return p.Writers, best
		}
	}
	return points[len(points)-1].Writers, best
}
