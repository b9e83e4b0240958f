package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// settledGoroutines returns the goroutine count once it stops
// changing. Under -count the previous test's goroutine can still be
// exiting when the next test starts, which would skew a before/after
// comparison by one.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
	return n
}

// runPanic runs e to completion and returns the recovered panic
// message ("" if Run returned normally).
func runPanic(e *Engine) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	e.Run()
	return ""
}

// spawnParked spawns n tasks that park on q forever.
func spawnParked(e *Engine, q *WaitQueue, n int) {
	for i := 0; i < n; i++ {
		e.Spawn(fmt.Sprintf("parked%d", i), func(p *Task) { q.Wait(p, p.Exit) })
	}
}

func TestFailureBodyPanicSurfacesAtRun(t *testing.T) {
	e := NewEngine()
	e.Spawn("rank3", func(p *Task) {
		p.Sleep(1, func() { panic("rank 3: bad offset") })
	})
	if msg := runPanic(e); msg != "rank 3: bad offset" {
		t.Fatalf("recovered %q, want the body's own panic message", msg)
	}
	if e.Now() != 1 {
		t.Errorf("engine stopped at t=%v, want 1", e.Now())
	}
}

// TestFailureDeadlockStopsParkedProcs: a deadlocked run holds no
// goroutine at any point, parked tasks included, so nothing outlives
// the failed run but the state its tasks left behind.
func TestFailureDeadlockStopsParkedProcs(t *testing.T) {
	before := settledGoroutines()
	e := NewEngine()
	var q WaitQueue
	spawnParked(e, &q, 8)
	during := -1
	e.At(1, func() { during = runtime.NumGoroutine() })
	msg := runPanic(e)
	if !strings.Contains(msg, "deadlock: 8 process(es) blocked") {
		t.Fatalf("recovered %q, want the deadlock panic", msg)
	}
	if q.Len() != 8 {
		t.Fatalf("%d tasks parked, want 8: the check is vacuous", q.Len())
	}
	if during != before {
		t.Errorf("%d goroutines with 8 tasks parked, want %d: a parked task must not own a goroutine", during, before)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("%d goroutines after the deadlock, want %d", after, before)
	}
}

// TestFailureRankPanicStopsParkedProcs: one task's panic leaves its
// parked peers as plain state, and the engine is not left running.
func TestFailureRankPanicStopsParkedProcs(t *testing.T) {
	before := settledGoroutines()
	e := NewEngine()
	var q WaitQueue
	spawnParked(e, &q, 8)
	e.Spawn("bad", func(p *Task) {
		p.Sleep(2, func() { panic(fmt.Errorf("bad rank at t=%v", p.Now())) })
	})
	if msg := runPanic(e); msg != "bad rank at t=2" {
		t.Fatalf("recovered %q, want the body's own panic message", msg)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("%d goroutines after the rank panic, want %d", after, before)
	}
	if e.running {
		t.Error("engine still marked running after the panic")
	}
	if q.Len() != 8 {
		t.Errorf("%d tasks parked after the panic, want 8", q.Len())
	}
}

func TestFailureResumeFinishedPanics(t *testing.T) {
	e := NewEngine()
	p := e.Spawn("short", func(p *Task) { p.Sleep(1, p.Exit) })
	e.Run()
	defer func() {
		if r := recover(); !strings.Contains(fmt.Sprint(r), `resume of finished process "short"`) {
			t.Errorf("recovered %v, want the finished-process panic", r)
		}
	}()
	p.Sleep(1, p.Exit)
}

func TestFailureDoubleWakePanics(t *testing.T) {
	e := NewEngine()
	e.Spawn("w", func(p *Task) {
		wake := p.Block(p.Exit)
		wake()
		wake()
	})
	if msg := runPanic(e); !strings.Contains(msg, `double wake of process "w"`) {
		t.Fatalf("recovered %q, want the double-wake panic", msg)
	}
}

func TestFailureBlockWithPendingWakePanics(t *testing.T) {
	e := NewEngine()
	e.Spawn("w", func(p *Task) {
		p.Block(p.Exit)
		p.Block(p.Exit)
	})
	if msg := runPanic(e); !strings.Contains(msg, `Block on process "w" with a wake already pending`) {
		t.Fatalf("recovered %q, want the pending-wake panic", msg)
	}
}
