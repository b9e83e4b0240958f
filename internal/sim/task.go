package sim

import "fmt"

// Task is a simulated process without a stack of its own. Its body is
// a chain of continuations: every blocking call takes the function to
// run once it completes and returns at once, and the event loop runs
// that function as an event of its own, at the (time, sequence) slot a
// stackful process would have been resumed in. A parked task is
// therefore only the state its continuation reads, and the event loop
// is the only thing that ever runs simulation code.
//
// A task has at most one call outstanding, so it owns a single wake
// (see Block). A spawned task is live from Spawn until Exit; a queue
// that drains while tasks are live is a deadlock.
type Task struct {
	eng  *Engine
	name string
	done bool

	// k is the continuation the pending wake schedules, nil while no
	// wake is armed, so a stray second wake panics instead of resuming
	// twice. wakeFn is the one wake function the task ever hands out,
	// bound on first use.
	k      func()
	wakeFn func()
}

// Spawn starts a task whose first step, start, runs at the current
// virtual time. The name is used in diagnostics only. The task is live
// until it calls Exit.
func (e *Engine) Spawn(name string, start func(t *Task)) *Task {
	t := NewTask(e, name)
	e.procs++
	e.At(e.now, func() { start(t) })
	return t
}

// NewTask returns a task that is not spawned: the wake slot of an
// event chain that is not a process of the simulated system (a
// background tenant), so it never counts toward deadlock detection.
func NewTask(e *Engine, name string) *Task {
	return &Task{eng: e, name: name}
}

// Exit marks a spawned task finished. A finished task may not sleep or
// block again.
func (t *Task) Exit() {
	t.live()
	t.done = true
	t.eng.procs--
}

func (t *Task) live() {
	if t.done {
		panic(fmt.Sprintf("sim: resume of finished process %q", t.name))
	}
}

// Name returns the task name given at Spawn.
func (t *Task) Name() string { return t.name }

// Now returns the current virtual time.
func (t *Task) Now() Time { return t.eng.now }

// Sleep runs k d seconds of virtual time from now. Even a zero sleep
// is an event of its own, behind everything already scheduled for the
// current instant.
func (t *Task) Sleep(d Duration, k func()) {
	t.live()
	if d < 0 {
		panic("sim: negative sleep")
	}
	t.eng.At(t.eng.now+d, k)
}

// Block arms the task's wake with continuation k and returns the wake
// function. Firing the wake — from an event function or another
// task's step — schedules k at the current instant; it must fire
// exactly once.
//
// The returned function is the task's single pre-allocated wake, so
// Block never allocates. Arming a second wake before the first fires
// panics, as does firing a wake twice.
func (t *Task) Block(k func()) (wake func()) {
	t.live()
	if t.k != nil {
		panic(fmt.Sprintf("sim: Block on process %q with a wake already pending", t.name))
	}
	if k == nil {
		panic("sim: Block with a nil continuation")
	}
	t.k = k
	if t.wakeFn == nil {
		t.wakeFn = t.wake
	}
	return t.wakeFn
}

// wake is the body of the function Block hands out: it disarms the
// guard and schedules the continuation at the current instant.
func (t *Task) wake() {
	k := t.k
	if k == nil {
		panic(fmt.Sprintf("sim: double wake of process %q", t.name))
	}
	t.k = nil
	t.eng.At(t.eng.now, k)
}

// WaitQueue is a FIFO queue of parked tasks. The zero value is ready
// to use. Its backing array is reused: woken slots are cleared and the
// array refilled, so a queue that repeatedly fills and drains (a
// barrier, a semaphore) allocates only while it grows.
type WaitQueue struct {
	waiters []func()
	head    int // waiters[:head] are woken and cleared
}

// Wait parks t until WakeOne or WakeAll wakes it; k then runs at the
// waking instant. Tasks are woken in FIFO order.
func (q *WaitQueue) Wait(t *Task, k func()) {
	if n := len(q.waiters); n == cap(q.waiters) && q.head > 0 && 2*q.head >= n {
		// At least half the full array is woken slots: slide the live
		// waiters down instead of growing.
		live := copy(q.waiters, q.waiters[q.head:])
		clear(q.waiters[live:])
		q.waiters, q.head = q.waiters[:live], 0
	}
	q.waiters = append(q.waiters, t.Block(k))
}

// WakeOne wakes the oldest waiter, if any, and reports whether a task
// was woken.
func (q *WaitQueue) WakeOne() bool {
	if q.head == len(q.waiters) {
		return false
	}
	w := q.waiters[q.head]
	q.waiters[q.head] = nil
	q.head++
	if q.head == len(q.waiters) {
		q.waiters, q.head = q.waiters[:0], 0
	}
	w()
	return true
}

// WakeAll wakes every waiter in FIFO order. A wake only schedules its
// task's continuation, so no waiter re-enters the queue while it
// drains.
func (q *WaitQueue) WakeAll() {
	ws := q.waiters[q.head:]
	for i, w := range ws {
		ws[i] = nil
		w()
	}
	q.waiters, q.head = q.waiters[:0], 0
}

// Len reports the number of parked tasks.
func (q *WaitQueue) Len() int { return len(q.waiters) - q.head }

// Semaphore is a counting semaphore for simulated tasks. The zero
// value has zero capacity; use NewSemaphore.
type Semaphore struct {
	avail int
	queue WaitQueue
}

// NewSemaphore returns a semaphore with n initial permits.
func NewSemaphore(n int) *Semaphore { return &Semaphore{avail: n} }

// Acquire takes one permit and reports true. With none free it parks t
// and reports false; retry runs when a Release wakes t and must call
// Acquire again. A woken waiter competes with tasks that arrive at the
// same instant, so a permit is never reserved for it.
func (s *Semaphore) Acquire(t *Task, retry func()) bool {
	if s.avail <= 0 {
		s.queue.Wait(t, retry)
		return false
	}
	s.avail--
	return true
}

// Release returns one permit and wakes a waiter if any.
func (s *Semaphore) Release() {
	s.avail++
	s.queue.WakeOne()
}

// Available reports the number of free permits.
func (s *Semaphore) Available() int { return s.avail }
