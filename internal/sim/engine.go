// Package sim provides a deterministic discrete-event simulation engine
// with a virtual clock and a stackless process runtime.
//
// The engine executes events in (time, sequence) order on a single
// goroutine. They wait in two lanes: a FIFO of events scheduled for
// the current instant, and a 4-ary heap of future events.
// Bulk-synchronous workloads schedule most events at the current
// instant (a barrier exit wakes every rank at once), and those never
// touch the heap.
//
// Simulated processes are Tasks: chains of continuations, not
// execution contexts. A blocking call takes the function to run when
// it completes and returns at once; the event loop later runs that
// continuation as an event of its own. Every line of simulation code
// therefore runs on the event loop's goroutine, one event at a time,
// which makes simulations fully deterministic for a given seed,
// regardless of GOMAXPROCS, and a parked process costs only its state.
//
// All times are in seconds of virtual time (type Time).
package sim

import (
	"fmt"
	"math"
	"slices"
)

// Time is a point in virtual time, in seconds since the start of the
// simulation.
type Time float64

// Duration is a span of virtual time, in seconds.
type Duration = Time

// Infinity is a time later than any event the engine will execute.
const Infinity Time = math.MaxFloat64

// event is one scheduled action. Exactly one of the two payload
// variants is set: fn (a function, typically a task's pre-bound
// continuation) or afn+arg (a pre-allocated function taking a uint64
// argument carried in the event itself). The second variant exists so
// the flownet refresh tick never allocates a closure per event.
type event struct {
	t   Time
	seq uint64
	fn  func()
	afn func(uint64)
	arg uint64
}

// eventHeap is a hand-rolled 4-ary min-heap ordered by (t, seq). It
// holds only future events (t > now when scheduled); same-instant
// events take the engine's FIFO lane instead. A 4-ary heap is half as
// deep as a binary one, and sifting moves one event into a hole
// rather than swapping pairs, so each level costs one 40-byte copy.
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
	procs   int // live (spawned, not exited) tasks

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

// reserve makes room for n more events in each lane, so scheduling
// them grows neither by append. SpawnAll reserves for its tasks before
// their first events: every task's first step enters the FIFO lane,
// and a bulk-synchronous job later parks every rank on the heap at
// once. n is a capacity floor, not a limit.
func (e *Engine) reserve(n int) {
	e.nowq = slices.Grow(e.nowq, n)
	e.events.a = slices.Grow(e.events.a, n)
}

// LaneCaps reports the capacity of the same-instant lane and of the
// heap, so a test can pin that a launch's reservation held.
func (e *Engine) LaneCaps() (now, future int) { return cap(e.nowq), cap(e.events.a) }

// After schedules fn to run d seconds from now. Negative d panics.
func (e *Engine) After(d Duration, fn func()) { e.At(e.now+d, fn) }

// Run executes events until the event queue is empty. It returns the
// final virtual time. Run panics if any spawned task has not exited
// when the queue drains (a deadlock in the simulated system); a panic
// inside a task's continuation propagates to Run's caller as is.
func (e *Engine) Run() Time { return e.RunUntil(Infinity) }

// RunUntil executes events with time <= limit and returns the time of
// the last executed event (or the current time if none ran). Events
// beyond the limit remain queued. A failed run leaves nothing behind
// to unwind: a parked task is only the state its continuation reads.
func (e *Engine) RunUntil(limit Time) Time {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	for {
		ev, more := e.next(limit)
		if !more {
			break
		}
		e.popped++
		e.now = ev.t
		if ev.afn != nil {
			ev.afn(ev.arg)
		} else {
			ev.fn()
		}
	}
	if e.Pending() == 0 && e.procs > 0 {
		panic(fmt.Sprintf("sim: deadlock: %d process(es) blocked with no pending events at t=%v", e.procs, e.now))
	}
	return e.now
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
// the fast-forward win is observable per run (cmd/tracestat prints
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
