// Package sim provides a deterministic discrete-event simulation engine
// with a virtual clock and a lock-step process runtime.
//
// The engine executes events in (time, sequence) order on a single
// goroutine. They wait in two lanes: a FIFO of events scheduled for
// the current instant, and a 4-ary heap of future events.
// Bulk-synchronous workloads schedule most events at the current
// instant (a barrier exit wakes every rank at once), and those never
// touch the heap.
//
// Simulated processes are coroutines (iter.Pull) that the
// event loop resumes directly: at most one process executes at a time,
// and control returns to the event loop whenever a process blocks on a
// simulated operation. This makes simulations fully deterministic for a
// given seed, regardless of GOMAXPROCS.
//
// All times are in seconds of virtual time (type Time).
package sim

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in seconds since the start of the
// simulation.
type Time float64

// Duration is a span of virtual time, in seconds.
type Duration = Time

// Infinity is a time later than any event the engine will execute.
const Infinity Time = math.MaxFloat64

// event is one scheduled action. Exactly one of the three payload
// variants is set: fn (a plain closure), afn+arg (a pre-allocated
// function taking a uint64 argument carried in the event itself), or
// proc (a direct process resume). The variants exist so the hot
// schedulers — process wakes, sleeps, and the flownet refresh tick —
// never allocate a closure per event.
type event struct {
	t    Time
	seq  uint64
	fn   func()
	afn  func(uint64)
	arg  uint64
	proc *Proc
}

// eventHeap is a hand-rolled 4-ary min-heap ordered by (t, seq). It
// holds only future events (t > now when scheduled); same-instant
// events take the engine's FIFO lane instead. A 4-ary heap is half as
// deep as a binary one, and sifting moves one event into a hole
// rather than swapping pairs, so each level costs one 48-byte copy.
// A typed heap avoids the interface{} boxing (one allocation per
// Push) and the dynamic dispatch of container/heap.
type eventHeap struct {
	a []event
}

func (h *eventHeap) len() int { return len(h.a) }

// before orders strictly by time, then by scheduling sequence — the
// determinism tie-break: two events at the same instant run in the
// order they were scheduled.
func before(x, y *event) bool {
	if x.t != y.t {
		return x.t < y.t
	}
	return x.seq < y.seq
}

func (h *eventHeap) push(ev event) {
	h.a = append(h.a, event{})
	a := h.a
	i := len(a) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !before(&ev, &a[parent]) {
			break
		}
		a[i] = a[parent]
		i = parent
	}
	a[i] = ev
}

func (h *eventHeap) pop() event {
	a := h.a
	top := a[0]
	n := len(a) - 1
	last := a[n]
	// Clear the vacated slot so the popped event's closure — and
	// everything it captures — is collectable even while the backing
	// array lives on. Without this, long runs pin every completed
	// event's captured state until the heap slot is overwritten.
	a[n] = event{}
	a = a[:n]
	h.a = a
	if n == 0 {
		return top
	}
	// Sift the last event down from the root's hole.
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for k, end := c+1, min(c+4, n); k < end; k++ {
			if before(&a[k], &a[m]) {
				m = k
			}
		}
		if !before(&a[m], &last) {
			break
		}
		a[i] = a[m]
		i = m
	}
	a[i] = last
	return top
}

// Engine is a discrete-event simulator. The zero value is not usable;
// construct with NewEngine.
//
// Pending events live in two lanes. An event scheduled at the current
// instant is appended to nowq, a FIFO consumed from nowHead; any later
// event goes on the heap. The lanes merge back into one (t, seq) order
// because every nowq entry was scheduled after the clock reached now,
// so a heap event at t == now (scheduled while the clock was still
// earlier) has a lower seq than all of them and pops first. The clock
// advances from the heap only when nowq is empty.
type Engine struct {
	now     Time
	events  eventHeap // future events
	nowq    []event   // same-instant FIFO lane; nowq[:nowHead] already popped
	nowHead int
	seq     uint64
	running bool
	procs   int     // live (spawned, not finished) processes
	spawned []*Proc // processes spawned since the last clean drain, stopped on abnormal exit

	// Scheduling statistics, kept unconditionally: one integer update
	// per schedule/pop, cheap enough that there is nothing to disable.
	// maxHeap is the high water of both lanes together.
	// Telemetry folds them into the run snapshot via the accessors.
	popped  uint64
	maxHeap int

	// Fast-forward accounting: virtual seconds crossed in single
	// analytic jumps (stretches a quantum-ticking scheduler would have
	// woken through repeatedly), reported by the fluid layers via
	// NoteFastForward. Pure bookkeeping — it never influences
	// scheduling — and a pure function of the simulated run, so
	// telemetry may serialize it.
	ffSeconds float64
	ffJumps   uint64
}

// NewEngine returns an engine with the clock at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past panics: events must never run backwards.
func (e *Engine) At(t Time, fn func()) {
	e.schedule(event{t: t, fn: fn})
}

// AtArg schedules fn(arg) at absolute virtual time t. The argument
// rides in the event itself, so a pre-allocated fn can be rescheduled
// forever without a per-event closure; the flownet refresh tick uses it
// to carry its generation counter.
func (e *Engine) AtArg(t Time, fn func(uint64), arg uint64) {
	e.schedule(event{t: t, afn: fn, arg: arg})
}

// atResume schedules a direct resume of p at time t — the closure-free
// path behind Spawn, Sleep, and Block wakes.
func (e *Engine) atResume(t Time, p *Proc) {
	e.schedule(event{t: t, proc: p})
}

func (e *Engine) schedule(ev event) {
	if ev.t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", ev.t, e.now))
	}
	e.seq++
	ev.seq = e.seq
	if ev.t == e.now {
		e.nowq = append(e.nowq, ev)
	} else {
		e.events.push(ev)
	}
	if n := e.Pending(); n > e.maxHeap {
		e.maxHeap = n
	}
}

// next removes and returns the earliest pending event by (t, seq), or
// reports false if it lies beyond limit or nothing is pending.
func (e *Engine) next(limit Time) (event, bool) {
	h := &e.events
	if e.nowHead < len(e.nowq) && (h.len() == 0 || h.a[0].t != e.now) {
		if e.now > limit {
			return event{}, false
		}
		ev := e.nowq[e.nowHead]
		e.nowq[e.nowHead] = event{} // release the closure, as heap pops do
		e.nowHead++
		if e.nowHead == len(e.nowq) {
			e.nowq, e.nowHead = e.nowq[:0], 0
		}
		return ev, true
	}
	if h.len() == 0 || h.a[0].t > limit {
		return event{}, false
	}
	return h.pop(), true
}

// After schedules fn to run d seconds from now. Negative d panics.
func (e *Engine) After(d Duration, fn func()) { e.At(e.now+d, fn) }

// Run executes events until the event queue is empty. It returns the
// final virtual time. Run panics if any spawned process is still
// blocked when the queue drains (a deadlock in the simulated system);
// a panic inside a process body is re-raised here too.
func (e *Engine) Run() Time { return e.RunUntil(Infinity) }

// RunUntil executes events with time <= limit and returns the time of
// the last executed event (or the current time if none ran). Events
// beyond the limit remain queued. If the run panics, every process
// still parked is stopped first, so a failed run holds no coroutines.
func (e *Engine) RunUntil(limit Time) Time {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	e.running = true
	ok := false
	defer func() {
		e.running = false
		if !ok {
			e.stopAll()
		}
	}()
	for {
		ev, more := e.next(limit)
		if !more {
			break
		}
		e.popped++
		e.now = ev.t
		switch {
		case ev.proc != nil:
			ev.proc.resume()
		case ev.afn != nil:
			ev.afn(ev.arg)
		default:
			ev.fn()
		}
	}
	if e.Pending() > 0 {
		ok = true // stopped at limit
		return e.now
	}
	if e.procs > 0 {
		panic(fmt.Sprintf("sim: deadlock: %d process(es) blocked with no pending events at t=%v", e.procs, e.now))
	}
	e.spawned = nil // every process finished: nothing left to stop
	ok = true
	return e.now
}

// stopAll unwinds every unfinished process. Stopping a finished
// process, or the one whose panic aborted the run, is a no-op.
func (e *Engine) stopAll() {
	for _, p := range e.spawned {
		p.stop()
	}
	e.spawned = nil
}

// Pending reports the number of queued events in both lanes.
func (e *Engine) Pending() int { return e.events.len() + len(e.nowq) - e.nowHead }

// EventsPopped reports how many events the engine has executed.
func (e *Engine) EventsPopped() uint64 { return e.popped }

// EventsScheduled reports how many events have ever been scheduled.
func (e *Engine) EventsScheduled() uint64 { return e.seq }

// HeapHighWater reports the maximum number of queued events observed,
// both lanes together.
func (e *Engine) HeapHighWater() int { return e.maxHeap }

// NoteFastForward records d virtual seconds traversed in one analytic
// jump: a stretch with no membership change that the simulator crossed
// with a single wake-up instead of ticking quanta through it. The
// fluid layers call it; workloads fold the totals into telemetry so
// the fast-forward win is observable per run (cmd/ensembletop prints
// the ratio against total virtual seconds).
func (e *Engine) NoteFastForward(d float64) {
	e.ffSeconds += d
	e.ffJumps++
}

// FastForwardSeconds reports the total virtual seconds crossed in
// analytic jumps.
func (e *Engine) FastForwardSeconds() float64 { return e.ffSeconds }

// FastForwardJumps reports how many analytic jumps were taken.
func (e *Engine) FastForwardJumps() uint64 { return e.ffJumps }
