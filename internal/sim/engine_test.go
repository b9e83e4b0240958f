package sim

import (
	"strings"
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
	e.Spawn("sleeper", func(p *Task) {
		marks = append(marks, p.Now())
		p.Sleep(3, func() {
			marks = append(marks, p.Now())
			p.Sleep(0, func() {
				marks = append(marks, p.Now())
				p.Exit()
			})
		})
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
			e.Spawn(name, func(p *Task) {
				p.Sleep(d, func() {
					order = append(order, p.Name())
					p.Exit()
				})
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

// loop runs body(0, next) .. body(n-1, next), each step handing the
// next one on as its continuation, then runs done.
func loop(n int, body func(i int, next func()), done func()) {
	i := 0
	var next func()
	next = func() {
		if i == n {
			done()
			return
		}
		i++
		body(i-1, next)
	}
	next()
}

func TestWaitQueueFIFO(t *testing.T) {
	e := NewEngine()
	var q WaitQueue
	var order []string
	for _, name := range []string{"x", "y", "z"} {
		e.Spawn(name, func(p *Task) {
			q.Wait(p, func() {
				order = append(order, name)
				p.Exit()
			})
		})
	}
	e.Spawn("waker", func(p *Task) {
		p.Sleep(1, func() {
			if q.Len() != 3 {
				t.Errorf("queue len %d, want 3", q.Len())
			}
			q.WakeOne()
			p.Sleep(1, func() {
				q.WakeAll()
				p.Exit()
			})
		})
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
		e.Spawn("w", func(p *Task) {
			loop(5, func(_ int, next func()) { q.Wait(p, next) }, p.Exit)
		})
	}
	e.Spawn("waker", func(p *Task) {
		loop(5, func(round int, next func()) {
			p.Sleep(1, func() {
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
				next()
			})
		}, p.Exit)
	})
	e.Run()

	// Three tasks cycle through a one-permit semaphore 200 times each:
	// its queue never empties, so only sliding keeps it small.
	e = NewEngine()
	sem := NewSemaphore(1)
	var order []int
	for i := 0; i < 3; i++ {
		e.Spawn("s", func(p *Task) {
			loop(200, func(_ int, next func()) {
				var acquire func()
				acquire = func() {
					if !sem.Acquire(p, acquire) {
						return
					}
					order = append(order, i)
					p.Sleep(1, func() {
						sem.Release()
						p.Sleep(0.5, next) // rejoin behind the waiter just woken
					})
				}
				acquire()
			}, p.Exit)
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
		e.Spawn("w", func(p *Task) {
			var acquire func()
			acquire = func() {
				if !sem.Acquire(p, acquire) {
					return
				}
				active++
				if active > peak {
					peak = active
				}
				p.Sleep(1, func() {
					active--
					sem.Release()
					p.Exit()
				})
			}
			acquire()
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

// TestDeadlockPanics: a queue that drains with a task still parked is
// a deadlock, and the message counts the parked tasks.
func TestDeadlockPanics(t *testing.T) {
	e := NewEngine()
	var q WaitQueue
	for i := 0; i < 3; i++ {
		e.Spawn("stuck", func(p *Task) { q.Wait(p, p.Exit) })
	}
	e.Spawn("done", func(p *Task) { p.Sleep(1, p.Exit) })
	if msg := runPanic(e); !strings.Contains(msg, "deadlock: 3 process(es) blocked") {
		t.Fatalf("recovered %q, want the deadlock panic counting 3 blocked tasks", msg)
	}
}

func TestBlockWake(t *testing.T) {
	e := NewEngine()
	var wake func()
	var resumedAt Time
	e.Spawn("blocker", func(p *Task) {
		wake = p.Block(func() {
			resumedAt = p.Now()
			p.Exit()
		})
	})
	e.Spawn("waker", func(p *Task) {
		p.Sleep(4, func() {
			wake()
			p.Exit()
		})
	})
	e.Run()
	if resumedAt != 4 {
		t.Errorf("resumed at %v, want 4", resumedAt)
	}
}

func TestRunReturnsFinalTime(t *testing.T) {
	e := NewEngine()
	e.Spawn("s", func(p *Task) { p.Sleep(7.5, p.Exit) })
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
	e.Spawn("parent", func(p *Task) {
		p.Sleep(2, func() {
			e.Spawn("child", func(c *Task) {
				c.Sleep(3, func() {
					childAt = c.Now()
					c.Exit()
				})
			})
			p.Sleep(1, p.Exit)
		})
	})
	e.Run()
	if childAt != 5 {
		t.Errorf("child finished at %v, want 5", childAt)
	}
}

func TestSemaphoreZeroCapacityDeadlocks(t *testing.T) {
	e := NewEngine()
	sem := NewSemaphore(0)
	e.Spawn("w", func(p *Task) {
		if sem.Acquire(p, p.Exit) {
			t.Error("acquired a permit from a zero-capacity semaphore")
		}
	})
	if msg := runPanic(e); !strings.Contains(msg, "deadlock: 1 process(es) blocked") {
		t.Fatalf("recovered %q, want the deadlock panic with a zero-permit semaphore", msg)
	}
}

func TestNegativeSleepPanics(t *testing.T) {
	e := NewEngine()
	e.Spawn("w", func(p *Task) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for negative sleep")
			}
			p.Exit()
		}()
		p.Sleep(-1, p.Exit)
	})
	e.Run()
}
