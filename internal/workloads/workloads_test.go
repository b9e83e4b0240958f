package workloads

import (
	"reflect"
	"testing"

	"ensembleio/internal/analysis"
	"ensembleio/internal/cluster"
	"ensembleio/internal/ensemble"
	"ensembleio/internal/ipmio"
)

// quiet returns a small, deterministic Franklin variant for mechanics
// tests (stochastics off, no background load).
func quiet() cluster.Profile {
	p := cluster.Franklin()
	p.NoiseSigma = 0
	p.SlowLuckProb = 0
	p.BackgroundMeanMBps = 0
	p.ConflictProbPerWriterPerOST = 0
	p.MDSSlowProb = 0
	return p
}

func TestIORSmokeEventAccounting(t *testing.T) {
	tasks, reps, k := 16, 2, 4
	r := RunIOR(IORConfig{
		Machine: quiet(), Tasks: tasks, Reps: reps,
		BlockBytes: 64e6, TransferBytes: 16e6, Seed: 1,
	})
	if r.Wall <= 0 {
		t.Fatal("zero wall time")
	}
	writes := r.Collector.OpEvents(ipmio.OpWrite)
	if want := tasks * reps * k; len(writes) != want {
		t.Errorf("%d write events, want %d", len(writes), want)
	}
	opens := r.Collector.OpEvents(ipmio.OpOpen)
	if len(opens) != tasks {
		t.Errorf("%d opens, want %d", len(opens), tasks)
	}
	if want := int64(tasks) * 64e6 * int64(reps); r.TotalBytes != want {
		t.Errorf("TotalBytes = %d, want %d", r.TotalBytes, want)
	}
	// Every write carries the right size and a positive duration.
	for _, e := range writes {
		if e.Bytes != 16e6 {
			t.Fatalf("write size %d, want 16e6", e.Bytes)
		}
		if e.Dur <= 0 {
			t.Fatalf("write with non-positive duration: %+v", e)
		}
	}
	// Phase marks: one per repetition.
	if len(r.Collector.Marks) != reps {
		t.Errorf("%d marks, want %d", len(r.Collector.Marks), reps)
	}
}

func TestIORUniqueOffsets(t *testing.T) {
	r := RunIOR(IORConfig{Machine: quiet(), Tasks: 8, Reps: 1, BlockBytes: 32e6, TransferBytes: 32e6, Seed: 1})
	seen := map[int64]int{}
	for _, e := range r.Collector.OpEvents(ipmio.OpWrite) {
		seen[e.Offset]++
	}
	if len(seen) != 8 {
		t.Errorf("%d distinct offsets, want 8 (one region per task)", len(seen))
	}
}

func TestIORRejectsUnevenSplit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-divisible transfer size")
		}
	}()
	RunIOR(IORConfig{Machine: quiet(), Tasks: 4, BlockBytes: 10e6, TransferBytes: 3e6})
}

func TestMADbenchPatternStructure(t *testing.T) {
	cfg := MADbenchConfig{Machine: quiet(), Tasks: 8, Matrices: 3, Seed: 2}
	r := RunMADbench(cfg)
	reads := r.Collector.OpEvents(ipmio.OpRead)
	writes := r.Collector.OpEvents(ipmio.OpWrite)
	// Per task: 3 S writes + 3 W writes; 3 W reads + 3 C reads.
	if want := 8 * 6; len(writes) != want {
		t.Errorf("%d writes, want %d", len(writes), want)
	}
	if want := 8 * 6; len(reads) != want {
		t.Errorf("%d reads, want %d", len(reads), want)
	}
	// Matrix slots are aligned to 1 MB and strided.
	stride := cfg.Stride()
	if stride != 301e6 {
		t.Errorf("stride %d, want 301e6 for a 300.4 MB matrix", stride)
	}
	for _, e := range writes {
		if e.Offset%1e6 != 0 {
			t.Errorf("write offset %d not 1MB aligned", e.Offset)
		}
	}
	// Seeks are traced (the access pattern is part of diagnosis).
	if len(r.Collector.OpEvents(ipmio.OpSeek)) == 0 {
		t.Error("no seek events traced")
	}
	// Phases: 3 S + 3 W + 3 C marks.
	if len(r.Collector.Marks) != 9 {
		t.Errorf("%d marks, want 9", len(r.Collector.Marks))
	}
}

func TestMADbenchTotalBytes(t *testing.T) {
	cfg := MADbenchConfig{Machine: quiet(), Tasks: 4, Matrices: 2, Seed: 1}
	r := RunMADbench(cfg)
	// 4 tasks x 2 matrices x 300.4 MB x 4 passes (S write, W read,
	// W write, C read).
	if want := int64(4) * 2 * 300_400_000 * 4; r.TotalBytes != want {
		t.Errorf("TotalBytes = %d, want %d", r.TotalBytes, want)
	}
}

func TestGCRMSmallScaleStructure(t *testing.T) {
	cfg := GCRMConfig{Machine: quiet(), Tasks: 32, Seed: 1, MetaOpsPerVar: 5}
	r := RunGCRM(cfg)
	writes := r.Collector.OpEvents(ipmio.OpWrite)
	var data, meta int
	for _, e := range writes {
		if e.Bytes > 64<<10 {
			data++
		} else {
			meta++
		}
	}
	// 32 tasks x (3 + 3*6) records.
	if want := 32 * 21; data != want {
		t.Errorf("%d data writes, want %d", data, want)
	}
	// Superblock + 6 variables x 5 ops, all from rank 0.
	if want := 1 + 6*5; meta != want {
		t.Errorf("%d metadata writes, want %d", meta, want)
	}
	for _, e := range writes {
		if e.Bytes <= 64<<10 && e.Rank != 0 {
			t.Fatalf("metadata write from rank %d, want only rank 0", e.Rank)
		}
	}
	if want := int64(32*21) * 1600000; r.TotalBytes != want {
		t.Errorf("TotalBytes = %d, want %d", r.TotalBytes, want)
	}
}

func TestGCRMAggregatorsWriteAllRecords(t *testing.T) {
	cfg := GCRMConfig{Machine: quiet(), Tasks: 32, Aggregators: 4, Seed: 1, MetaOpsPerVar: 2}
	r := RunGCRM(cfg)
	var data int
	writers := map[int]bool{}
	offsets := map[int64]bool{}
	for _, e := range r.Collector.OpEvents(ipmio.OpWrite) {
		if e.Bytes > 64<<10 {
			data++
			writers[e.Rank] = true
			offsets[e.Offset] = true
		}
	}
	if want := 32 * 21; data != want {
		t.Errorf("%d data writes, want %d (all tasks' records)", data, want)
	}
	if len(writers) != 4 {
		t.Errorf("%d writer ranks, want 4 aggregators", len(writers))
	}
	if len(offsets) != data {
		t.Errorf("%d distinct offsets for %d records: overlapping writes", len(offsets), data)
	}
}

func TestGCRMTwoStageGatherDeliversSameRecords(t *testing.T) {
	cfg := GCRMConfig{Machine: quiet(), Tasks: 32, Aggregators: 4, TwoStage: true, Seed: 1, MetaOpsPerVar: 2}
	r := RunGCRM(cfg)
	var data int
	writers := map[int]bool{}
	for _, e := range r.Collector.OpEvents(ipmio.OpWrite) {
		if e.Bytes > 64<<10 {
			data++
			writers[e.Rank] = true
		}
	}
	if want := 32 * 21; data != want {
		t.Errorf("two-stage wrote %d records, want %d", data, want)
	}
	// Aggregators are world ranks 0, 8, 16, 24.
	for w := range writers {
		if w%8 != 0 {
			t.Errorf("unexpected writer rank %d", w)
		}
	}
}

func TestGCRMAlignmentPadsWrites(t *testing.T) {
	cfg := GCRMConfig{Machine: quiet(), Tasks: 16, Align: true, Seed: 1, MetaOpsPerVar: 2}
	r := RunGCRM(cfg)
	for _, e := range r.Collector.OpEvents(ipmio.OpWrite) {
		if e.Bytes <= 64<<10 {
			continue
		}
		if e.Offset%1e6 != 0 || e.Bytes != 2e6 {
			t.Fatalf("aligned run has unaligned data write off=%d n=%d", e.Offset, e.Bytes)
		}
	}
}

func TestGCRMMetaAggregationDefersToClose(t *testing.T) {
	cfg := GCRMConfig{Machine: quiet(), Tasks: 16, AggregateMetadata: true, Seed: 1, MetaOpsPerVar: 50}
	r := RunGCRM(cfg)
	small, big := 0, 0
	for _, e := range r.Collector.OpEvents(ipmio.OpWrite) {
		if e.Bytes > 64<<10 && e.Bytes != 1600000 {
			big++ // aggregated metadata chunk
		} else if e.Bytes <= 64<<10 {
			small++
		}
	}
	if small != 1 { // only the superblock
		t.Errorf("%d small writes with aggregation, want 1 (superblock)", small)
	}
	if big == 0 {
		t.Error("no aggregated metadata chunk written at close")
	}
}

func TestRunAggregateRate(t *testing.T) {
	r := &Run{Wall: 10, TotalBytes: 500e6}
	if got := r.AggregateMBps(); got != 50 {
		t.Errorf("AggregateMBps = %v, want 50", got)
	}
	if (&Run{Wall: 0}).AggregateMBps() != 0 {
		t.Error("zero wall should give zero rate")
	}
}

func TestPhaseMarksSliceCleanly(t *testing.T) {
	r := RunIOR(IORConfig{Machine: quiet(), Tasks: 8, Reps: 3, BlockBytes: 32e6, TransferBytes: 32e6, Seed: 1})
	phases := analysis.Phases(r.Collector.Events, r.Collector.Marks, r.Wall)
	dataPhases := 0
	for _, ph := range phases {
		n := 0
		for _, e := range ph.Events {
			if e.Op == ipmio.OpWrite {
				n++
			}
		}
		if n > 0 {
			dataPhases++
			if n != 8 {
				t.Errorf("phase %s has %d writes, want 8", ph.Name, n)
			}
		}
	}
	if dataPhases != 3 {
		t.Errorf("%d write phases, want 3", dataPhases)
	}
}

func ensembleDurations(events []ipmio.Event) *ensemble.Dataset {
	d := ensemble.NewDataset(nil)
	for _, e := range events {
		d.Add(float64(e.Dur))
	}
	return d
}

func TestIORReadBack(t *testing.T) {
	r := RunIOR(IORConfig{
		Machine: quiet(), Tasks: 8, Reps: 1,
		BlockBytes: 64e6, TransferBytes: 16e6, ReadBack: true, Seed: 1,
	})
	reads := r.Collector.OpEvents(ipmio.OpRead)
	if want := 8 * 4; len(reads) != want {
		t.Fatalf("%d read events, want %d", len(reads), want)
	}
	for _, e := range reads {
		if e.Bytes != 16e6 {
			t.Fatalf("read size %d, want 16e6", e.Bytes)
		}
	}
	// Reads of a task's own block are sequential: no strided pathology
	// even on the unpatched profile.
	d := ensembleDurations(reads)
	if d.Max() > 10*d.Quantile(0.5) {
		t.Errorf("read-back tail max=%.1f med=%.1f: sequential reads must not degenerate", d.Max(), d.Quantile(0.5))
	}
	// Accounting: reads add one block per task.
	if want := int64(8)*64e6 + int64(8)*64e6; r.TotalBytes != want {
		t.Errorf("TotalBytes = %d, want %d", r.TotalBytes, want)
	}
}

func TestIORFilePerProcess(t *testing.T) {
	r := RunIOR(IORConfig{
		Machine: quiet(), Tasks: 8, Reps: 1,
		BlockBytes: 32e6, TransferBytes: 32e6, FilePerProcess: true, Seed: 1,
	})
	files := map[string]bool{}
	for _, e := range r.Collector.OpEvents(ipmio.OpWrite) {
		files[e.File] = true
		if e.Offset != 0 {
			t.Errorf("FPP write at offset %d, want 0 (own file)", e.Offset)
		}
	}
	if len(files) != 8 {
		t.Errorf("%d distinct files, want 8", len(files))
	}
}

func TestFilePerProcessAvoidsSharedContention(t *testing.T) {
	// Many small unaligned writers: shared-file mode suffers the
	// extent-lock cap; file-per-process does not.
	prof := cluster.Franklin()
	prof.BackgroundMeanMBps = 0
	prof.NoiseSigma = 0
	prof.SlowLuckProb = 0
	run := func(fpp bool) float64 {
		r := RunIOR(IORConfig{
			// Reps > 1: phases after the first start from a barrier,
			// so all 512 writers hit the file system simultaneously.
			Machine: prof, Tasks: 512, Reps: 4,
			BlockBytes: 1600000, TransferBytes: 1600000,
			FilePerProcess: fpp, Seed: 6,
		})
		d := analysis.Durations(r.Collector.Events, analysis.IsOp(ipmio.OpWrite))
		return d.Quantile(0.5)
	}
	shared := run(false)
	fpp := run(true)
	if fpp >= shared {
		t.Errorf("FPP median write %.3fs not faster than shared-file %.3fs: per-file contention model broken", fpp, shared)
	}
}

func TestIORTransferSweep(t *testing.T) {
	pts := IORTransferSweep(IORConfig{
		Machine: quiet(), Tasks: 16, Reps: 1, BlockBytes: 64e6,
	}, []int{1, 2, 4}, []int64{1, 2}, 0, nil)
	if len(pts) != 3 {
		t.Fatalf("%d points, want 3", len(pts))
	}
	for i, k := range []int{1, 2, 4} {
		if pts[i].K != k || pts[i].TransferBytes != 64e6/int64(k) {
			t.Errorf("point %d: %+v", i, pts[i])
		}
		if len(pts[i].Runs) != 2 {
			t.Errorf("point %d has %d runs, want 2", i, len(pts[i].Runs))
		}
		if pts[i].MeanRateMBps <= 0 {
			t.Errorf("point %d has rate %v", i, pts[i].MeanRateMBps)
		}
		if want := 16 * k; len(pts[i].Runs[0].Collector.OpEvents(ipmio.OpWrite)) != want {
			t.Errorf("point %d run has wrong write count", i)
		}
	}
}

func TestIORWriterSweepAndSaturation(t *testing.T) {
	prof := quiet()
	pts := IORWriterSweep(prof, []int{4, 16, 64}, 64, 32e6, []int64{1, 2}, 0, nil)
	if len(pts) != 3 {
		t.Fatalf("%d points, want 3", len(pts))
	}
	// Fixed volume: more writers should not be slower (quiet profile).
	if pts[2].WallSec > pts[0].WallSec {
		t.Errorf("64 writers (%.1fs) slower than 4 (%.1fs)", pts[2].WallSec, pts[0].WallSec)
	}
	w, best := SaturationPoint(pts, 1.5)
	if best <= 0 {
		t.Fatal("zero best wall")
	}
	if w != 4 && w != 16 && w != 64 {
		t.Errorf("saturation point %d not among the sweep", w)
	}
	if _, b := SaturationPoint(nil, 1.5); b != 0 {
		t.Error("empty sweep should return zero")
	}
}

func TestCheckpointStructure(t *testing.T) {
	cfg := CheckpointConfig{
		Machine: quiet(), Tasks: 16, Steps: 3,
		StateBytes: 64e6, TransferBytes: 16e6, ComputeSec: 5, Seed: 1,
		Telemetry: true,
	}
	res := RunCheckpoint(cfg)
	writes := res.Collector.OpEvents(ipmio.OpWrite)
	if want := 16 * 3 * 4; len(writes) != want {
		t.Errorf("%d writes, want %d", len(writes), want)
	}
	if len(res.StepIOSec) != 3 {
		t.Fatalf("%d step costs, want 3", len(res.StepIOSec))
	}
	for i, s := range res.StepIOSec {
		if s <= 0 {
			t.Errorf("step %d I/O cost %v, want > 0", i, s)
		}
	}
	frac := res.IOFraction()
	if frac <= 0 || frac >= 1 {
		t.Errorf("I/O fraction %v, want in (0,1)", frac)
	}
	// Wall covers compute + checkpoints.
	if float64(res.Wall) < res.ComputeSecTotal {
		t.Errorf("wall %.1f below total compute %.1f", float64(res.Wall), res.ComputeSecTotal)
	}
	// The run is finished like every other workload: telemetry folded,
	// server-side stats and the rank-to-node factor recorded.
	if res.Telemetry == nil {
		t.Error("Telemetry: true run has nil Telemetry")
	}
	if res.FSStats.WriteJobs <= 0 {
		t.Errorf("FSStats.WriteJobs = %d, want > 0", res.FSStats.WriteJobs)
	}
	if res.CoresPerNode != cfg.Machine.CoresPerNode {
		t.Errorf("CoresPerNode = %d, want %d", res.CoresPerNode, cfg.Machine.CoresPerNode)
	}
	// Step times come from rank 0's phase marks, which profile-only
	// collection keeps too.
	cfg.Mode, cfg.Telemetry = ipmio.ProfileMode, false
	prof := RunCheckpoint(cfg)
	if !reflect.DeepEqual(prof.StepIOSec, res.StepIOSec) {
		t.Errorf("profile-mode StepIOSec %v, trace mode %v", prof.StepIOSec, res.StepIOSec)
	}
}

func TestCheckpointRejectsUnevenTransfer(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	RunCheckpoint(CheckpointConfig{Machine: quiet(), Tasks: 2, StateBytes: 10e6, TransferBytes: 3e6})
}

// doctored returns a trace-mode copy of col in which the first event
// of op moves n bytes instead.
func doctored(t *testing.T, col *ipmio.Collector, op ipmio.Op, n int64) *ipmio.Collector {
	t.Helper()
	out := ipmio.NewCollector(ipmio.TraceMode)
	done := false
	for _, e := range col.Events {
		if !done && e.Op == op {
			e.Bytes, done = n, true
		}
		out.Record(e)
	}
	if !done {
		t.Fatalf("no %s event to doctor", op)
	}
	return out
}

// TestPostRunChecksFire feeds the typed runners' post-run checks a
// clean run and a doctored copy of it: a short IOR read-back and a
// zero-length MADbench transfer must each be reported.
func TestPostRunChecksFire(t *testing.T) {
	ior := RunIOR(IORConfig{Machine: quiet(), Tasks: 4, BlockBytes: 8e6, TransferBytes: 4e6, ReadBack: true, Seed: 1})
	if err := checkIORReadBack(ior.Collector, 4e6); err != nil {
		t.Fatalf("clean IOR read-back flagged: %v", err)
	}
	if err := checkIORReadBack(doctored(t, ior.Collector, ipmio.OpRead, 4e6-1), 4e6); err == nil {
		t.Error("short IOR read-back not reported")
	}

	mad := RunMADbench(MADbenchConfig{Machine: quiet(), Tasks: 4, Matrices: 2, MatrixBytes: 4e6, Seed: 1})
	if err := checkMADbenchTransfers(mad.Collector); err != nil {
		t.Fatalf("clean MADbench run flagged: %v", err)
	}
	for _, op := range []ipmio.Op{ipmio.OpRead, ipmio.OpWrite} {
		if err := checkMADbenchTransfers(doctored(t, mad.Collector, op, 0)); err == nil {
			t.Errorf("zero-length MADbench %s not reported", op)
		}
	}
}
