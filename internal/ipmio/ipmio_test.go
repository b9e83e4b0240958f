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
			task, tr := &posixio.Task{}, &Tracer{}
			sys.InitTask(task, 0, cl.Nodes[0], p)
			tr.Init(task, col)
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
	name := func(e Event) string { return col.Files.Name(e.File) }
	if o := col.Events[0]; o.FD != fd || name(o) != "/scratch/f" {
		t.Errorf("open event wrong: %+v", o)
	}
	w := col.Events[1]
	if w.Bytes != 30e6 || name(w) != "/scratch/f" || w.Offset != 0 || w.Dur <= 0 {
		t.Errorf("write event wrong: %+v", w)
	}
	r := col.Events[3]
	if r.Bytes != 10e6 || r.Offset != 0 {
		t.Errorf("read event wrong: %+v", r)
	}
	for i, e := range col.Events {
		if name(e) != "/scratch/f" {
			t.Errorf("event %d (%v) names %q, want /scratch/f", i, e.Op, name(e))
		}
	}
	if c := col.Events[5]; c.FD != fd || name(c) != "/scratch/f" {
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

// TestTracerNamesEachDescriptorsFile: the tracer's fd-to-file lookup
// names every call by the file its descriptor opened, with two files
// open at once and a failed open in between; a path opened twice
// keeps one id.
func TestTracerNamesEachDescriptorsFile(t *testing.T) {
	eng, spawn, col := tracedTask(TraceMode)
	openPath := func(path string, flags int) call {
		return func(tr *Tracer, _ int64, _ error, k posixio.Done) { tr.Open(path, flags, k) }
	}
	on := func(fd int) call {
		return func(tr *Tracer, _ int64, _ error, k posixio.Done) { tr.Write(fd, 1e6, k) }
	}
	closeFD := func(fd int) call {
		return func(tr *Tracer, _ int64, _ error, k posixio.Done) { tr.Close(fd, k) }
	}
	skip := func(tr *Tracer, _ int64, _ error, k posixio.Done) { k(0, nil) }
	rw := posixio.OCreat | posixio.ORdwr
	spawn(openPath("/scratch/a", rw), openPath("/scratch/missing", posixio.ORdonly), skip,
		openPath("/scratch/b", rw), on(fd+1), on(fd), closeFD(fd),
		openPath("/scratch/a", rw), on(fd+2), closeFD(fd+1), closeFD(fd+2))
	eng.Run()
	want := []string{"/scratch/a", "/scratch/b", "/scratch/b", "/scratch/a", "/scratch/a", "/scratch/a", "/scratch/a", "/scratch/b", "/scratch/a"}
	if len(col.Events) != len(want) {
		t.Fatalf("%d events, want %d: %+v", len(col.Events), len(want), col.Events)
	}
	for i, e := range col.Events {
		if got := col.Files.Name(e.File); got != want[i] {
			t.Errorf("event %d (%v fd %d) names %q, want %q", i, e.Op, e.FD, got, want[i])
		}
	}
	if col.Events[0].File != col.Events[5].File {
		t.Errorf("/scratch/a opened twice has ids %d and %d, want one", col.Events[0].File, col.Events[5].File)
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
