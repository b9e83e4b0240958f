package sim

import (
	"testing"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(2, func() { got = append(got, 2) })
	e.At(1, func() { got = append(got, 1) })
	e.At(3, func() { got = append(got, 3) })
	e.At(1, func() { got = append(got, 10) }) // same time: FIFO by seq
	end := e.Run()
	want := []int{1, 10, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d: got %d want %d", i, got[i], want[i])
		}
	}
	if end != 3 {
		t.Errorf("final time %v, want 3", end)
	}
}

func TestAfterAdvancesClock(t *testing.T) {
	e := NewEngine()
	var at Time
	e.After(5, func() {
		at = e.Now()
		e.After(2.5, func() { at = e.Now() })
	})
	e.Run()
	if at != 7.5 {
		t.Errorf("nested After time %v, want 7.5", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestRunUntilLeavesLaterEvents(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.At(1, func() { ran++ })
	e.At(10, func() { ran++ })
	e.RunUntil(5)
	if ran != 1 {
		t.Errorf("ran %d events by t=5, want 1", ran)
	}
	if e.Pending() != 1 {
		t.Errorf("pending %d, want 1", e.Pending())
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEngine()
	var marks []Time
	e.Spawn("sleeper", func(p *Proc) {
		marks = append(marks, p.Now())
		p.Sleep(3)
		marks = append(marks, p.Now())
		p.Sleep(0)
		marks = append(marks, p.Now())
	})
	e.Run()
	if len(marks) != 3 || marks[0] != 0 || marks[1] != 3 || marks[2] != 3 {
		t.Errorf("marks = %v, want [0 3 3]", marks)
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var order []string
		for i, d := range []Duration{3, 1, 2} {
			name := string(rune('a' + i))
			dd := d
			e.Spawn(name, func(p *Proc) {
				p.Sleep(dd)
				order = append(order, p.Name())
			})
		}
		e.Run()
		return order
	}
	first := run()
	if first[0] != "b" || first[1] != "c" || first[2] != "a" {
		t.Errorf("order = %v, want [b c a]", first)
	}
	for i := 0; i < 10; i++ {
		again := run()
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("nondeterministic order: %v vs %v", first, again)
			}
		}
	}
}

func TestWaitQueueFIFO(t *testing.T) {
	e := NewEngine()
	var q WaitQueue
	var order []string
	for _, name := range []string{"x", "y", "z"} {
		n := name
		e.Spawn(n, func(p *Proc) {
			q.Wait(p)
			order = append(order, n)
		})
	}
	e.Spawn("waker", func(p *Proc) {
		p.Sleep(1)
		if q.Len() != 3 {
			t.Errorf("queue len %d, want 3", q.Len())
		}
		q.WakeOne()
		p.Sleep(1)
		q.WakeAll()
	})
	e.Run()
	if len(order) != 3 || order[0] != "x" || order[1] != "y" || order[2] != "z" {
		t.Errorf("wake order %v, want [x y z]", order)
	}
}

// TestWaitQueueReusesItsArray: a queue that fills and drains keeps one
// backing array, and one that never drains (a busy semaphore) stays
// FIFO and bounded while it slides live waiters down.
func TestWaitQueueReusesItsArray(t *testing.T) {
	e := NewEngine()
	var q WaitQueue
	const n = 64
	var first *func()
	for i := 0; i < n; i++ {
		e.Spawn("w", func(p *Proc) {
			for round := 0; round < 5; round++ {
				q.Wait(p)
			}
		})
	}
	e.Spawn("waker", func(p *Proc) {
		for round := 0; round < 5; round++ {
			p.Sleep(1)
			if q.Len() != n {
				t.Errorf("round %d: %d waiters, want %d", round, q.Len(), n)
			}
			if round == 0 {
				first = &q.waiters[:1][0]
			} else if &q.waiters[:1][0] != first {
				t.Errorf("round %d: backing array reallocated", round)
			}
			if round%2 == 0 {
				q.WakeAll()
			} else {
				for q.WakeOne() {
				}
			}
		}
	})
	e.Run()

	// Three processes cycle through a one-permit semaphore 200 times
	// each: its queue never empties, so only sliding keeps it small.
	e = NewEngine()
	sem := NewSemaphore(1)
	var order []int
	for i := 0; i < 3; i++ {
		e.Spawn("s", func(p *Proc) {
			for k := 0; k < 200; k++ {
				sem.Acquire(p)
				order = append(order, i)
				p.Sleep(1)
				sem.Release()
				p.Sleep(0.5) // rejoin behind the waiter just woken
			}
		})
	}
	e.Run()
	for k, who := range order {
		if who != k%3 {
			t.Fatalf("acquisition %d by %d, want %d (FIFO)", k, who, k%3)
		}
	}
	if c := cap(sem.queue.waiters); c > 8 {
		t.Errorf("semaphore queue grew to cap %d for at most 3 waiters", c)
	}
}

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	e := NewEngine()
	sem := NewSemaphore(2)
	active, peak := 0, 0
	for i := 0; i < 6; i++ {
		e.Spawn("w", func(p *Proc) {
			sem.Acquire(p)
			active++
			if active > peak {
				peak = active
			}
			p.Sleep(1)
			active--
			sem.Release()
		})
	}
	e.Run()
	if peak != 2 {
		t.Errorf("peak concurrency %d, want 2", peak)
	}
	if e.Now() != 3 {
		t.Errorf("makespan %v, want 3 (6 jobs, 2 wide, 1s each)", e.Now())
	}
}

func TestDeadlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected deadlock panic")
		}
	}()
	e := NewEngine()
	var q WaitQueue
	e.Spawn("stuck", func(p *Proc) { q.Wait(p) })
	e.Run()
}

func TestBlockWake(t *testing.T) {
	e := NewEngine()
	var wake func()
	var resumedAt Time
	e.Spawn("blocker", func(p *Proc) {
		wake = p.Block()
		p.Park()
		resumedAt = p.Now()
	})
	e.Spawn("waker", func(p *Proc) {
		p.Sleep(4)
		wake()
	})
	e.Run()
	if resumedAt != 4 {
		t.Errorf("resumed at %v, want 4", resumedAt)
	}
}

func TestRunReturnsFinalTime(t *testing.T) {
	e := NewEngine()
	e.Spawn("s", func(p *Proc) { p.Sleep(7.5) })
	if end := e.Run(); end != 7.5 {
		t.Errorf("Run returned %v, want 7.5", end)
	}
	if e.Pending() != 0 {
		t.Errorf("%d events pending after Run", e.Pending())
	}
}

func TestNestedSpawn(t *testing.T) {
	e := NewEngine()
	var childAt Time
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(2)
		e.Spawn("child", func(c *Proc) {
			c.Sleep(3)
			childAt = c.Now()
		})
		p.Sleep(1)
	})
	e.Run()
	if childAt != 5 {
		t.Errorf("child finished at %v, want 5", childAt)
	}
}

func TestSemaphoreZeroCapacityDeadlocks(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected deadlock panic with zero-permit semaphore")
		}
	}()
	e := NewEngine()
	sem := NewSemaphore(0)
	e.Spawn("w", func(p *Proc) { sem.Acquire(p) })
	e.Run()
}

func TestNegativeSleepPanics(t *testing.T) {
	e := NewEngine()
	e.Spawn("w", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for negative sleep")
			}
		}()
		p.Sleep(-1)
	})
	e.Run()
}
