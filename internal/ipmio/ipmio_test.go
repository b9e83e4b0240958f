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

func tracedTask(mode Mode) (*sim.Engine, *Tracer, *Collector) {
	eng := sim.NewEngine()
	prof := cluster.Franklin()
	prof.NoiseSigma = 0
	prof.StragglerProb = 0
	prof.BackgroundMeanMBps = 0
	prof.ConflictProbPerWriterPerOST = 0
	cl := cluster.New(eng, prof, 1, 21)
	sys := posixio.NewSystem(lustre.NewFS(cl))
	col := NewCollector(mode)
	tr := NewTracer(sys.NewTask(0, cl.Nodes[0]), col)
	return eng, tr, col
}

func TestTraceRecordsEveryCall(t *testing.T) {
	eng, tr, col := tracedTask(TraceMode)
	eng.Spawn("t", func(p *sim.Proc) {
		fd, _ := tr.Open(p, "/scratch/f", posixio.OCreat|posixio.ORdwr)
		tr.Write(p, fd, 30e6)
		tr.Seek(p, fd, 0, posixio.SeekSet)
		tr.Read(p, fd, 10e6)
		tr.Fsync(p, fd)
		tr.Close(p, fd)
	})
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
	w := col.Events[1]
	if w.Bytes != 30e6 || w.File != "/scratch/f" || w.Offset != 0 || w.Dur <= 0 {
		t.Errorf("write event wrong: %+v", w)
	}
	r := col.Events[3]
	if r.Bytes != 10e6 || r.Offset != 0 {
		t.Errorf("read event wrong: %+v", r)
	}
	// Events are in start order and timestamps are consistent.
	for i := 1; i < len(col.Events); i++ {
		if col.Events[i].Start < col.Events[i-1].Start {
			t.Error("events out of order")
		}
	}
}

func TestFailedCallsNotRecorded(t *testing.T) {
	eng, tr, col := tracedTask(TraceMode)
	eng.Spawn("t", func(p *sim.Proc) {
		if _, err := tr.Open(p, "/scratch/missing", posixio.ORdonly); err == nil {
			t.Error("expected open failure")
		}
		if _, err := tr.Read(p, 99, 10); err == nil {
			t.Error("expected read failure")
		}
	})
	eng.Run()
	if len(col.Events) != 0 {
		t.Errorf("%d events recorded for failed calls, want 0", len(col.Events))
	}
}

func TestProfileModeAgreesWithTraceMode(t *testing.T) {
	eng, tr, col := tracedTask(TraceMode | ProfileMode)
	eng.Spawn("t", func(p *sim.Proc) {
		fd, _ := tr.Open(p, "/scratch/f", posixio.OCreat|posixio.ORdwr)
		for i := 0; i < 20; i++ {
			tr.Write(p, fd, 20e6)
		}
		tr.Close(p, fd)
	})
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
	eng, tr, col := tracedTask(ProfileMode)
	eng.Spawn("t", func(p *sim.Proc) {
		fd, _ := tr.Open(p, "/scratch/f", posixio.OCreat|posixio.OWronly)
		tr.Write(p, fd, 20e6)
	})
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
	eng, tr, col := tracedTask(TraceMode)
	eng.Spawn("t", func(p *sim.Proc) {
		col.Mark("phase1", p.Now())
		fd, _ := tr.Open(p, "/scratch/f", posixio.OCreat|posixio.OWronly)
		tr.Write(p, fd, 20e6)
		col.Mark("phase2", p.Now())
		tr.Write(p, fd, 20e6)
	})
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
