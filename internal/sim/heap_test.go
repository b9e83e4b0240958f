package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// TestEventHeapOrderingProperty drains randomized heaps and checks the
// pop sequence against a reference sort by (t, seq).
func TestEventHeapOrderingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		var h eventHeap
		ref := make([]event, 0, n)
		for i := 0; i < n; i++ {
			// Coarse times force plenty of (t, seq) ties.
			e := event{t: Time(rng.Intn(20)), seq: uint64(i)}
			h.push(e)
			ref = append(ref, e)
		}
		sort.Slice(ref, func(i, j int) bool {
			if ref[i].t != ref[j].t {
				return ref[i].t < ref[j].t
			}
			return ref[i].seq < ref[j].seq
		})
		for i, want := range ref {
			got := h.pop()
			if got.t != want.t || got.seq != want.seq {
				t.Fatalf("trial %d: pop %d = (t=%v seq=%d), want (t=%v seq=%d)",
					trial, i, got.t, got.seq, want.t, want.seq)
			}
		}
		if h.len() != 0 {
			t.Fatalf("trial %d: %d events left after draining", trial, h.len())
		}
	}
}

// TestEventHeapInterleavedPushPop mixes pushes and pops, mirroring how
// the engine grows and drains the queue during a run.
func TestEventHeapInterleavedPushPop(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var h eventHeap
	seq := uint64(0)
	last := event{t: -1}
	now := Time(0)
	for step := 0; step < 5000; step++ {
		if h.len() == 0 || rng.Intn(3) != 0 {
			seq++
			h.push(event{t: now + Time(rng.Intn(10)), seq: seq})
		} else {
			e := h.pop()
			if e.t < last.t || (e.t == last.t && e.seq < last.seq) {
				t.Fatalf("step %d: pop went backwards: (%v,%d) after (%v,%d)",
					step, e.t, e.seq, last.t, last.seq)
			}
			last = e
			now = e.t
		}
	}
}

// TestEventHeapPopClearsSlot pins the closure-retention fix: the
// vacated backing-array slot must not keep the popped event's fn (and
// everything its closure captures) reachable.
func TestEventHeapPopClearsSlot(t *testing.T) {
	var h eventHeap
	for i := 0; i < 32; i++ {
		h.push(event{t: Time(i), seq: uint64(i), fn: func() {}})
	}
	for h.len() > 0 {
		n := h.len()
		h.pop()
		if got := h.a[:n][n-1]; got.fn != nil || got.t != 0 || got.seq != 0 {
			t.Fatalf("backing slot %d not cleared after pop: %+v", n-1, got)
		}
	}
}

// TestEngineLanePopClearsSlot is the same-instant lane's half of the
// closure-retention fix: every popped lane slot is zeroed at once, and
// a drained lane keeps no event in its backing array.
func TestEngineLanePopClearsSlot(t *testing.T) {
	e := NewEngine()
	cleared := func(ev event) bool {
		return ev.fn == nil && ev.afn == nil && ev.proc == nil && ev.t == 0 && ev.seq == 0 && ev.arg == 0
	}
	checks := 0
	check := func() {
		checks++
		for i, ev := range e.nowq[:e.nowHead] {
			if !cleared(ev) {
				t.Fatalf("lane slot %d not cleared after pop: %+v", i, ev)
			}
		}
	}
	for i := 0; i < 32; i++ {
		e.At(0, check)
		e.AtArg(0, func(uint64) { check() }, uint64(i+1))
	}
	e.Spawn("p", func(p *Proc) { p.Sleep(0); check() })
	e.Run()
	if checks != 65 {
		t.Fatalf("ran %d checks, want 65", checks)
	}
	if len(e.nowq) != 0 || e.nowHead != 0 {
		t.Fatalf("drained lane not reset: len %d, head %d", len(e.nowq), e.nowHead)
	}
	for i, ev := range e.nowq[:cap(e.nowq)] {
		if !cleared(ev) {
			t.Fatalf("drained lane keeps slot %d: %+v", i, ev)
		}
	}
}

// BenchmarkEngineEventChurn measures the raw event-queue hot path:
// schedule-and-run chains of events the way simulated I/O operations
// do. The typed heap must not allocate per push/pop.
func BenchmarkEngineEventChurn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		// 64 concurrent timelines, each a chain of 256 events, so the
		// heap stays ~64 deep while 16384 events churn through it.
		for k := 0; k < 64; k++ {
			var step func()
			left := 256
			at := Time(k) * 0.001
			step = func() {
				left--
				at += 1
				if left > 0 {
					e.At(at, step)
				}
			}
			e.At(at, step)
		}
		e.Run()
	}
}

// BenchmarkEngineDeepHeap stresses sift depth: a large standing queue
// with steady push/pop traffic.
func BenchmarkEngineDeepHeap(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for k := 0; k < 10000; k++ {
			e.At(Time(k%97)+Time(k)*1e-6, func() {})
		}
		e.Run()
	}
}

// BenchmarkEngineBarrierWake is the bulk-synchronous pattern the
// same-instant lane serves: 10,240 processes loop over a short Sleep
// and a WaitQueue barrier, so every barrier exit wakes all of them at
// one instant. BenchmarkEngineDeepHeap is the contrast: all its events
// but the first lie in the future and take the heap.
func BenchmarkEngineBarrierWake(b *testing.B) {
	const procs, rounds = 10240, 8
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		var q WaitQueue
		arrived := 0
		for k := 0; k < procs; k++ {
			e.Spawn("rank", func(p *Proc) {
				for r := 0; r < rounds; r++ {
					p.Sleep(1e-6)
					if arrived++; arrived < procs {
						q.Wait(p)
						continue
					}
					arrived = 0
					q.WakeAll()
				}
			})
		}
		e.Run()
	}
}
