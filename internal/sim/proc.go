package sim

import (
	"fmt"
	"iter"
)

// Proc is a simulated process: a coroutine that advances only when the
// event loop resumes it and hands control straight back when it
// blocks. A Proc may call its blocking methods (Sleep, and the Wait
// methods of synchronization types built on park/unpark) only from its
// own body.
type Proc struct {
	eng   *Engine
	name  string
	done  bool
	next  func() (struct{}, bool) // resume: run the body until it parks or returns
	stop  func()                  // unwind a parked body (abnormal engine exit)
	yield func(struct{}) bool     // park: hand control back to next's caller

	// wakeFn is the one wake function this process ever hands out (see
	// Block); wakeArmed guards it so a stray second call still panics
	// the way the per-call closures used to.
	wakeFn    func()
	wakeArmed bool
}

// procStopped is the panic value park raises inside a body whose
// coroutine the engine is stopping; the body's own wrapper recovers it,
// so it never escapes the process.
type procStopped struct{}

// Spawn starts fn as a simulated process at the current virtual time.
// The name is used in diagnostics only.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name}
	p.wakeFn = p.fireWake
	// iter.Pull runs the body as a coroutine: next and yield switch
	// control directly, so exactly one of the event loop and this body
	// runs at any time and the interleaving is fixed by the event
	// queue. A panic in the body is re-raised by next at the event
	// loop, i.e. at Run's caller.
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		defer func() {
			if r := recover(); r != nil && r != any(procStopped{}) {
				panic(r)
			}
		}()
		p.yield = yield
		fn(p)
		p.done = true
		e.procs--
	})
	e.procs++
	e.spawned = append(e.spawned, p)
	e.atResume(e.now, p)
	return p
}

// resume runs the process until it parks again or finishes. It must
// only be called from the event loop (i.e. from inside an event
// function).
func (p *Proc) resume() {
	if p.done {
		panic(fmt.Sprintf("sim: resume of finished process %q", p.name))
	}
	p.next()
}

// park yields control back to the event loop until the next resume. If
// the engine stops the process instead, park unwinds the body.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(procStopped{})
	}
}

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Sleep blocks the process for d seconds of virtual time.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	p.eng.atResume(p.eng.now+d, p)
	p.park()
}

// Block parks the process until some other event calls the returned
// wake function. The wake function is safe to call from event
// functions or from other processes (it schedules the resume rather
// than performing it inline) and must be called exactly once.
//
// The returned function is the process's single pre-allocated wake —
// Block never allocates. A process may therefore hold at most one
// un-fired wake at a time; obtaining a second one before the first
// fires panics, as does firing a wake twice.
func (p *Proc) Block() (wake func()) {
	if p.wakeArmed {
		panic(fmt.Sprintf("sim: Block on process %q with a wake already pending", p.name))
	}
	p.wakeArmed = true
	return p.wakeFn
}

// fireWake is the body of every wake function Block hands out: it
// disarms the guard and schedules a closure-free resume at the current
// instant.
func (p *Proc) fireWake() {
	if !p.wakeArmed {
		panic(fmt.Sprintf("sim: double wake of process %q", p.name))
	}
	p.wakeArmed = false
	p.eng.atResume(p.eng.now, p)
}

// Park parks the process; it resumes when a previously obtained wake
// function fires. Used with Block:
//
//	wake := p.Block()
//	registerSomewhere(wake)
//	p.Park()
func (p *Proc) Park() { p.park() }

// WaitQueue is a FIFO queue of parked processes. The zero value is
// ready to use. Its backing array is reused: woken slots are cleared
// and the array refilled, so a queue that repeatedly fills and drains
// (a barrier, a semaphore) allocates only while it grows.
type WaitQueue struct {
	waiters []func()
	head    int // waiters[:head] are woken and cleared
}

// Wait parks p until it is woken by WakeOne or WakeAll. Processes are
// woken in FIFO order.
func (q *WaitQueue) Wait(p *Proc) {
	if n := len(q.waiters); n == cap(q.waiters) && q.head > 0 && 2*q.head >= n {
		// At least half the full array is woken slots: slide the live
		// waiters down instead of growing.
		live := copy(q.waiters, q.waiters[q.head:])
		clear(q.waiters[live:])
		q.waiters, q.head = q.waiters[:live], 0
	}
	q.waiters = append(q.waiters, p.Block())
	p.Park()
}

// WakeOne wakes the oldest waiter, if any, and reports whether a
// process was woken.
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
// process's resume, so no waiter re-enters the queue while it drains.
func (q *WaitQueue) WakeAll() {
	ws := q.waiters[q.head:]
	for i, w := range ws {
		ws[i] = nil
		w()
	}
	q.waiters, q.head = q.waiters[:0], 0
}

// Len reports the number of parked processes.
func (q *WaitQueue) Len() int { return len(q.waiters) - q.head }

// Semaphore is a counting semaphore for simulated processes. The zero
// value has zero capacity; use NewSemaphore.
type Semaphore struct {
	avail int
	queue WaitQueue
}

// NewSemaphore returns a semaphore with n initial permits.
func NewSemaphore(n int) *Semaphore { return &Semaphore{avail: n} }

// Acquire takes one permit, blocking the process until one is free.
func (s *Semaphore) Acquire(p *Proc) {
	for s.avail <= 0 {
		s.queue.Wait(p)
	}
	s.avail--
}

// Release returns one permit and wakes a waiter if any.
func (s *Semaphore) Release() {
	s.avail++
	s.queue.WakeOne()
}

// Available reports the number of free permits.
func (s *Semaphore) Available() int { return s.avail }
