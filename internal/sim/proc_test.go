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

// spawnParked spawns n processes that block forever on q, each
// counting its unwinding in *unwound.
func spawnParked(e *Engine, q *WaitQueue, n int, unwound *int) {
	for i := 0; i < n; i++ {
		e.Spawn(fmt.Sprintf("parked%d", i), func(p *Proc) {
			defer func() { *unwound++ }()
			q.Wait(p)
		})
	}
}

func TestFailureBodyPanicSurfacesAtRun(t *testing.T) {
	e := NewEngine()
	e.Spawn("rank3", func(p *Proc) {
		p.Sleep(1)
		panic("rank 3: bad offset")
	})
	if msg := runPanic(e); msg != "rank 3: bad offset" {
		t.Fatalf("recovered %q, want the body's own panic message", msg)
	}
	if e.Now() != 1 {
		t.Errorf("engine stopped at t=%v, want 1", e.Now())
	}
}

// TestFailureDeadlockStopsParkedProcs: a deadlocked run must unwind
// every parked process, so no coroutine (and no goroutine stack behind
// it) outlives the failed run.
func TestFailureDeadlockStopsParkedProcs(t *testing.T) {
	before := settledGoroutines()
	e := NewEngine()
	var q WaitQueue
	unwound := 0
	spawnParked(e, &q, 8, &unwound)
	during := 0
	e.At(1, func() { during = runtime.NumGoroutine() })
	msg := runPanic(e)
	if !strings.Contains(msg, "deadlock: 8 process(es) blocked") {
		t.Fatalf("recovered %q, want the deadlock panic", msg)
	}
	if during < before+8 {
		t.Fatalf("%d goroutines while parked, want at least %d: the check is vacuous", during, before+8)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("%d goroutines after the deadlock, want %d (parked processes leaked)", after, before)
	}
	if unwound != 8 {
		t.Errorf("%d parked bodies unwound, want 8", unwound)
	}
}

// TestFailureRankPanicStopsParkedProcs: one body's panic must not
// leave its parked peers behind either.
func TestFailureRankPanicStopsParkedProcs(t *testing.T) {
	before := settledGoroutines()
	e := NewEngine()
	var q WaitQueue
	unwound := 0
	spawnParked(e, &q, 8, &unwound)
	e.Spawn("bad", func(p *Proc) {
		p.Sleep(2)
		panic(fmt.Errorf("bad rank at t=%v", p.Now()))
	})
	if msg := runPanic(e); msg != "bad rank at t=2" {
		t.Fatalf("recovered %q, want the body's own panic message", msg)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("%d goroutines after the rank panic, want %d (parked processes leaked)", after, before)
	}
	if unwound != 8 {
		t.Errorf("%d parked bodies unwound, want 8", unwound)
	}
}

func TestFailureResumeFinishedPanics(t *testing.T) {
	e := NewEngine()
	p := e.Spawn("short", func(p *Proc) { p.Sleep(1) })
	e.Run()
	defer func() {
		if r := recover(); !strings.Contains(fmt.Sprint(r), `resume of finished process "short"`) {
			t.Errorf("recovered %v, want the finished-process panic", r)
		}
	}()
	p.resume()
}

func TestFailureDoubleWakePanics(t *testing.T) {
	e := NewEngine()
	e.Spawn("w", func(p *Proc) {
		wake := p.Block()
		wake()
		wake()
	})
	if msg := runPanic(e); !strings.Contains(msg, `double wake of process "w"`) {
		t.Fatalf("recovered %q, want the double-wake panic", msg)
	}
}

func TestFailureBlockWithPendingWakePanics(t *testing.T) {
	e := NewEngine()
	e.Spawn("w", func(p *Proc) {
		p.Block()
		p.Block()
	})
	if msg := runPanic(e); !strings.Contains(msg, `Block on process "w" with a wake already pending`) {
		t.Fatalf("recovered %q, want the pending-wake panic", msg)
	}
}
