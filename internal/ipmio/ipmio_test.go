package ipmio

import (
	"math"
	"testing"

	"ensembleio/internal/cluster"
	"ensembleio/internal/ensemble"
	"ensembleio/internal/lustre"
	"ensembleio/internal/posixio"
	"ensembleio/internal/sim"
)

// call is one step of a test script: it issues at most one call on tr
// with completion k (calling k itself if it issues none), given the
// previous call's result.
type call func(tr *Tracer, n int64, err error, k posixio.Done)

// fd is the descriptor a script's first Open returns.
const fd = 3

// tracedTask returns an engine, a function that spawns one traced task
// running a script of calls, and the task's collector.
func tracedTask(mode Mode) (*sim.Engine, func(calls ...call), *Collector) {
	eng := sim.NewEngine()
	prof := cluster.Franklin()
	prof.NoiseSigma = 0
	prof.StragglerProb = 0
	prof.BackgroundMeanMBps = 0
	prof.ConflictProbPerWriterPerOST = 0
	cl := cluster.New(eng, prof, 1, 21)
	sys := posixio.NewSystem(lustre.NewFS(cl))
	col := NewCollector(mode)
	spawn := func(calls ...call) {
		eng.Spawn("t", func(p *sim.Task) {
			tr := NewTracer(sys.NewTask(0, cl.Nodes[0], p), col)
			i := 0
			var next posixio.Done
			next = func(n int64, err error) {
				if i == len(calls) {
					p.Exit()
					return
				}
				i++
				calls[i-1](tr, n, err, next)
			}
			next(0, nil)
		})
	}
	return eng, spawn, col
}

func open(flags int) call {
	return func(tr *Tracer, _ int64, _ error, k posixio.Done) { tr.Open("/scratch/f", flags, k) }
}

func write(n int64) call {
	return func(tr *Tracer, _ int64, _ error, k posixio.Done) { tr.Write(fd, n, k) }
}

func TestTraceRecordsEveryCall(t *testing.T) {
	eng, spawn, col := tracedTask(TraceMode)
	spawn(open(posixio.OCreat|posixio.ORdwr), write(30e6),
		func(tr *Tracer, _ int64, _ error, k posixio.Done) {
			tr.Seek(fd, 0, posixio.SeekSet)
			tr.Read(fd, 10e6, k)
		},
		func(tr *Tracer, _ int64, _ error, k posixio.Done) { tr.Fsync(fd, k) },
		func(tr *Tracer, _ int64, _ error, k posixio.Done) { tr.Close(fd, k) })
	eng.Run()
	wantOps := []Op{OpOpen, OpWrite, OpSeek, OpRead, OpFsync, OpClose}
	if len(col.Events) != len(wantOps) {
		t.Fatalf("%d events, want %d: %+v", len(col.Events), len(wantOps), col.Events)
	}
	for i, want := range wantOps {
		if col.Events[i].Op != want {
			t.Errorf("event %d op %v, want %v", i, col.Events[i].Op, want)
		}
	}
	if o := col.Events[0]; o.FD != fd || o.File != "/scratch/f" {
		t.Errorf("open event wrong: %+v", o)
	}
	w := col.Events[1]
	if w.Bytes != 30e6 || w.File != "/scratch/f" || w.Offset != 0 || w.Dur <= 0 {
		t.Errorf("write event wrong: %+v", w)
	}
	r := col.Events[3]
	if r.Bytes != 10e6 || r.Offset != 0 {
		t.Errorf("read event wrong: %+v", r)
	}
	if c := col.Events[5]; c.FD != fd || c.File != "/scratch/f" {
		t.Errorf("close event wrong: %+v", c)
	}
	// Events are in start order and timestamps are consistent.
	for i := 1; i < len(col.Events); i++ {
		if col.Events[i].Start < col.Events[i-1].Start {
			t.Error("events out of order")
		}
	}
}

func TestFailedCallsNotRecorded(t *testing.T) {
	eng, spawn, col := tracedTask(TraceMode)
	var errs []error
	note := func(tr *Tracer, _ int64, err error, k posixio.Done) {
		errs = append(errs, err)
		k(0, nil)
	}
	spawn(func(tr *Tracer, _ int64, _ error, k posixio.Done) { tr.Open("/scratch/missing", posixio.ORdonly, k) }, note,
		func(tr *Tracer, _ int64, _ error, k posixio.Done) { tr.Read(99, 10, k) }, note)
	eng.Run()
	if len(errs) != 2 || errs[0] == nil || errs[1] == nil {
		t.Errorf("errors %v, want an open and a read failure", errs)
	}
	if len(col.Events) != 0 {
		t.Errorf("%d events recorded for failed calls, want 0", len(col.Events))
	}
}

func TestProfileModeAgreesWithTraceMode(t *testing.T) {
	eng, spawn, col := tracedTask(TraceMode | ProfileMode)
	calls := []call{open(posixio.OCreat | posixio.ORdwr)}
	for i := 0; i < 20; i++ {
		calls = append(calls, write(20e6))
	}
	spawn(append(calls, func(tr *Tracer, _ int64, _ error, k posixio.Done) { tr.Close(fd, k) })...)
	eng.Run()

	writes := ensemble.NewDataset(nil)
	for _, e := range col.OpEvents(OpWrite) {
		writes.Add(float64(e.Dur))
	}
	if writes.Len() != 20 {
		t.Fatalf("traced %d writes, want 20", writes.Len())
	}
	prof := col.DurProfile(OpWrite)
	if prof.Total() != 20 {
		t.Fatalf("profiled %d writes, want 20", int(prof.Total()))
	}
	// The online histogram's mean must match the trace-derived mean —
	// the paper's claim that the profile captures what tracing does.
	if math.Abs(prof.Mean()-writes.Mean())/writes.Mean() > 0.15 {
		t.Errorf("profile mean %v vs trace mean %v", prof.Mean(), writes.Mean())
	}
}

func TestProfileOnlyRetainsNoEvents(t *testing.T) {
	eng, spawn, col := tracedTask(ProfileMode)
	spawn(open(posixio.OCreat|posixio.OWronly), write(20e6))
	eng.Run()
	if len(col.Events) != 0 {
		t.Error("profile-only collector retained events")
	}
	if col.DurProfile(OpWrite).Total() != 1 {
		t.Error("profile-only collector missed the write")
	}
}

func TestRateMBps(t *testing.T) {
	e := Event{Bytes: 100e6, Dur: 2}
	if r := e.RateMBps(); math.Abs(r-50) > 1e-9 {
		t.Errorf("rate %v, want 50", r)
	}
	if (Event{Bytes: 0, Dur: 2}).RateMBps() != 0 {
		t.Error("unsized event should have rate 0")
	}
}

func TestMarksAndOpEvents(t *testing.T) {
	eng, spawn, col := tracedTask(TraceMode)
	mark := func(name string) call {
		return func(tr *Tracer, _ int64, _ error, k posixio.Done) {
			col.Mark(name, tr.Task.Now())
			k(0, nil)
		}
	}
	spawn(mark("phase1"), open(posixio.OCreat|posixio.OWronly), write(20e6), mark("phase2"), write(20e6))
	eng.Run()
	if len(col.Marks) != 2 || col.Marks[0].Name != "phase1" {
		t.Errorf("marks wrong: %+v", col.Marks)
	}
	if got := len(col.OpEvents(OpWrite)); got != 2 {
		t.Errorf("OpEvents(write) = %d, want 2", got)
	}
}

func TestParseOpRoundTrip(t *testing.T) {
	for op := OpOpen; op < opCount; op++ {
		got, ok := ParseOp(op.String())
		if !ok || got != op {
			t.Errorf("ParseOp(%q) = %v,%v", op.String(), got, ok)
		}
	}
	if _, ok := ParseOp("bogus"); ok {
		t.Error("ParseOp accepted bogus")
	}
}
