package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// refEvent is one scheduled action in the reference model: its virtual
// time and its schedule index (1 for the first schedule call, 2 for the
// next, ...).
type refEvent struct {
	t   Time
	idx uint64
}

func refBefore(x, y refEvent) bool {
	if x.t != y.t {
		return x.t < y.t
	}
	return x.idx < y.idx
}

// orderModel drives a seeded random program on an engine and mirrors
// every schedule call in a plain reference queue. Each action notes its
// schedule index right next to the engine call that schedules it, so
// the two counters advance together; each executed action reports that
// index back.
type orderModel struct {
	t   *testing.T
	e   *Engine
	rng *rand.Rand

	pending    []refEvent // reference queue, unordered
	maxPending int
	idx        uint64
	ran        []refEvent // executed actions, in execution order

	budget  int // random actions left; bounds the program
	live    int // spawned processes not yet finished
	q       WaitQueue
	waiting []*uint64 // FIFO mirror of q: where each waiter's wake index goes
	blocked []blockedProc
	argFn   func(uint64)
}

type blockedProc struct {
	wake func()
	idx  *uint64
}

// note records a schedule call at time t and returns its index. The
// caller makes the matching engine call immediately.
func (m *orderModel) note(t Time) uint64 {
	m.idx++
	m.pending = append(m.pending, refEvent{t, m.idx})
	m.maxPending = max(m.maxPending, len(m.pending))
	return m.idx
}

// exec checks one executed action against the reference queue: it
// runs at its own time, and the engine's queue length matches the
// reference once it is removed.
func (m *orderModel) exec(idx uint64) {
	m.t.Helper()
	for i, r := range m.pending {
		if r.idx != idx {
			continue
		}
		if r.t != m.e.Now() {
			m.t.Fatalf("action %d scheduled for t=%v ran at t=%v", idx, r.t, m.e.Now())
		}
		m.ran = append(m.ran, r)
		m.pending = append(m.pending[:i], m.pending[i+1:]...)
		if got := m.e.Pending(); got != len(m.pending) {
			m.t.Fatalf("after action %d: Pending() = %d, reference %d", idx, got, len(m.pending))
		}
		return
	}
	m.t.Fatalf("action %d ran but is not pending", idx)
}

// at picks a time: the current instant (the engine's same-instant
// lane) or a coarse future time, so ties are common on both sides.
func (m *orderModel) at() Time {
	if m.rng.Intn(2) == 0 {
		return m.e.Now()
	}
	return m.e.Now() + Time(1+m.rng.Intn(3))/2
}

// act performs up to three random scheduling actions while the budget
// lasts.
func (m *orderModel) act() {
	for n := m.rng.Intn(4); n > 0 && m.budget > 0; n-- {
		m.budget--
		switch m.rng.Intn(6) {
		case 0:
			t := m.at()
			idx := m.note(t)
			m.e.At(t, func() { m.exec(idx); m.act() })
		case 1:
			t := m.at()
			m.e.AtArg(t, m.argFn, m.note(t))
		case 2:
			m.spawn()
		case 3:
			m.wakeAll()
		case 4:
			m.wakeBlocked(m.rng.Intn(len(m.blocked) + 1))
		default:
			// A lone future At: keeps the heap populated under the lane.
			t := m.e.Now() + 1
			idx := m.note(t)
			m.e.At(t, func() { m.exec(idx) })
		}
	}
}

func (m *orderModel) spawn() {
	idx := m.note(m.e.Now())
	m.live++
	m.e.Spawn("p", func(p *Proc) {
		m.exec(idx)
		for steps := 1 + m.rng.Intn(4); steps > 0; steps-- {
			m.step(p)
			m.act()
		}
		m.live--
	})
}

// step is one blocking operation of a process body.
func (m *orderModel) step(p *Proc) {
	switch m.rng.Intn(4) {
	case 0:
		idx := m.note(m.e.Now())
		p.Sleep(0)
		m.exec(idx)
	case 1:
		d := Time(1+m.rng.Intn(3)) / 2
		idx := m.note(m.e.Now() + d)
		p.Sleep(d)
		m.exec(idx)
	case 2:
		slot := new(uint64)
		m.waiting = append(m.waiting, slot)
		m.q.Wait(p)
		m.exec(*slot)
	default:
		slot := new(uint64)
		m.blocked = append(m.blocked, blockedProc{p.Block(), slot})
		p.Park()
		m.exec(*slot)
	}
}

// wakeAll releases every WaitQueue waiter: one same-instant resume
// each, scheduled in FIFO order.
func (m *orderModel) wakeAll() {
	for _, slot := range m.waiting {
		*slot = m.note(m.e.Now())
	}
	m.waiting = nil
	m.q.WakeAll()
}

// wakeBlocked fires the wake of blocked process k, if there is one.
func (m *orderModel) wakeBlocked(k int) {
	if k >= len(m.blocked) {
		return
	}
	b := m.blocked[k]
	m.blocked = append(m.blocked[:k], m.blocked[k+1:]...)
	*b.idx = m.note(m.e.Now())
	b.wake()
}

// tick runs once per time unit while processes live or budget
// remains, waking every parked process so no program deadlocks.
func (m *orderModel) tick(idx uint64) {
	m.exec(idx)
	m.wakeAll()
	for len(m.blocked) > 0 {
		m.wakeBlocked(0)
	}
	m.act()
	if m.budget > 0 {
		m.budget--
	}
	if m.live > 0 || m.budget > 0 {
		t := m.e.Now() + 1
		idx := m.note(t)
		m.e.At(t, func() { m.tick(idx) })
	}
}

// TestEngineOrderMatchesReference runs seeded random programs mixing
// At and AtArg now and in the future, Spawn, Sleep(0), Sleep(d),
// Block/wake, WaitQueue.WakeAll bursts and RunUntil slices (limits
// below, at and above the clock). Execution order must equal the
// reference sort by (time, schedule index), each RunUntil must stop
// exactly before the first action beyond its limit, and Pending and
// HeapHighWater must equal the reference queue's length and peak.
func TestEngineOrderMatchesReference(t *testing.T) {
	for trial := int64(0); trial < 200; trial++ {
		m := &orderModel{t: t, e: NewEngine(), rng: rand.New(rand.NewSource(trial)), budget: 150}
		m.argFn = func(idx uint64) { m.exec(idx); m.act() }
		first := m.note(0)
		m.e.At(0, func() { m.tick(first) })
		m.act()
		for m.e.Pending() > 0 {
			// Schedule from outside the run too: same-instant actions
			// then sit in the lane while RunUntil decides whether to
			// run them.
			if m.rng.Intn(3) == 0 {
				m.act()
			}
			var limit Time
			switch now := m.e.Now(); m.rng.Intn(5) {
			case 0:
				limit = now - 0.5
			case 1:
				limit = now
			case 2:
				limit = now + Time(m.rng.Intn(3))/2
			case 3:
				limit = now + 0.25
			default:
				limit = Infinity
			}
			ran := len(m.ran)
			if got := m.e.RunUntil(limit); got != m.e.Now() {
				t.Fatalf("trial %d: RunUntil(%v) = %v, clock at %v", trial, limit, got, m.e.Now())
			}
			for _, r := range m.ran[ran:] {
				if r.t > limit {
					t.Fatalf("trial %d: RunUntil(%v) ran action %d at t=%v", trial, limit, r.idx, r.t)
				}
			}
			for _, r := range m.pending {
				if r.t <= limit {
					t.Fatalf("trial %d: RunUntil(%v) left action %d at t=%v", trial, limit, r.idx, r.t)
				}
			}
			if got := m.e.Pending(); got != len(m.pending) {
				t.Fatalf("trial %d: Pending() = %d after RunUntil(%v), reference %d", trial, got, limit, len(m.pending))
			}
		}
		if m.live != 0 {
			t.Fatalf("trial %d: %d processes never finished", trial, m.live)
		}
		if got := m.e.EventsScheduled(); got != m.idx {
			t.Fatalf("trial %d: engine scheduled %d events, reference %d", trial, got, m.idx)
		}
		if got := m.e.EventsPopped(); got != uint64(len(m.ran)) {
			t.Fatalf("trial %d: engine popped %d events, reference ran %d", trial, got, len(m.ran))
		}
		want := append([]refEvent(nil), m.ran...)
		sort.Slice(want, func(i, j int) bool { return refBefore(want[i], want[j]) })
		for i := range want {
			if m.ran[i] != want[i] {
				t.Fatalf("trial %d: execution %d was (t=%v, #%d), reference order has (t=%v, #%d)",
					trial, i, m.ran[i].t, m.ran[i].idx, want[i].t, want[i].idx)
			}
		}
		if got := m.e.HeapHighWater(); got != m.maxPending {
			t.Fatalf("trial %d: HeapHighWater() = %d, reference peak %d", trial, got, m.maxPending)
		}
	}
}
