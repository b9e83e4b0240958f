package flownet

import (
	"math"
	"testing"

	"ensembleio/internal/sim"
)

// TestNearFinishedStreamTerminates pins the zero-advance-refresh
// hazard: late in a run (large virtual now), a stream's residual
// duration remaining/rate can be smaller than one ulp of now, so the
// analytic deadline now + remaining/rate rounds back to exactly now.
// completeDue's deadline <= now comparison is what breaks the loop —
// the stream completes at the wake that assigned its rate — and this
// test constructs exactly that case and asserts the engine finishes
// the stream in a bounded number of events instead of spinning
// forever.
func TestNearFinishedStreamTerminates(t *testing.T) {
	eng := sim.NewEngine()
	fab := New(eng, Config{AggregateMBps: 100, Quantum: 0.05})
	port := fab.NewPort(0)

	// At t=1e9 the float64 spacing is ~1.2e-7 s. A 1e-6 MB demand at
	// 100 MB/s lasts 1e-8 s — far below half an ulp, so the scheduled
	// completion time rounds to exactly now and advance sees dt == 0.
	const bigT = sim.Time(1e9)
	done := false
	eng.At(bigT, func() {
		port.Start(1e-6, StreamOpts{Done: func() { done = true }})
	})
	eng.Run()

	if !done {
		t.Fatal("near-finished stream never completed")
	}
	if fab.ActiveStreams() != 0 {
		t.Fatalf("%d streams still active", fab.ActiveStreams())
	}
	if popped := eng.EventsPopped(); popped > 50 {
		t.Fatalf("engine needed %d events for one tiny stream — the zero-advance refresh loop is back", popped)
	}
}

// TestNearFinishedStreamAmongPeers is the same hazard with a healthy
// stream sharing the port, checking the deadline rounding completes
// only the vanishing stream and the survivor still finishes at its
// proper time.
func TestNearFinishedStreamAmongPeers(t *testing.T) {
	eng := sim.NewEngine()
	fab := New(eng, Config{AggregateMBps: 100, Quantum: 0.05})
	port := fab.NewPort(0)

	const bigT = sim.Time(1e9)
	var tinyAt, bulkAt sim.Time
	eng.At(bigT, func() {
		port.Start(1e-6, StreamOpts{Done: func() { tinyAt = eng.Now() }})
		port.Start(100, StreamOpts{Done: func() { bulkAt = eng.Now() }})
	})
	eng.Run()

	if tinyAt == 0 || bulkAt == 0 {
		t.Fatalf("streams did not complete: tiny=%v bulk=%v", tinyAt, bulkAt)
	}
	// The bulk stream moves 100 MB at 50-then-100 MB/s; with the tiny
	// stream vanishing within one event, its duration must stay ~1 s.
	if d := float64(bulkAt - bigT); d < 0.9 || d > 1.2 {
		t.Fatalf("bulk stream took %v s, want ~1 s", d)
	}
	if popped := eng.EventsPopped(); popped > 100 {
		t.Fatalf("engine needed %d events — zero-advance refresh loop", popped)
	}
}

// sameBits reports exact float64 identity — the determinism contract
// is bitwise, so the fast-path tests never compare with tolerances.
func sameBits(a, b sim.Time) bool {
	return math.Float64bits(float64(a)) == math.Float64bits(float64(b))
}

// TestNoQuantumLagAboveThreshold is the property test for the fast
// path's headline claim: above exactThreshold, the historical scheme
// detected completions with up to one quantum of lag, while the
// calendar fires them at the exact closed-form deadline. 600
// uniform streams (> exactThreshold = 512) start at t=0; the deferred
// water-fill lands at exactly one quantum, and every completion must
// land at quantum + demand/fairRate to the bit — no rounding up to
// the next quantum boundary. A second run checks the calendar against
// the brute-force oracle from every completion and from a poke train,
// and must complete every stream at the same instant.
func TestNoQuantumLagAboveThreshold(t *testing.T) {
	const (
		n       = 600
		cap     = 10_000.0
		demand  = 101.0
		quantum = sim.Duration(0.05)
	)
	run := func(checked bool) []sim.Time {
		eng := sim.NewEngine()
		fab := New(eng, Config{AggregateMBps: cap, Quantum: quantum})
		o := &completionOracle{t: t, f: fab}
		port := fab.NewPort(0)
		times := make([]sim.Time, 0, n)
		for i := 0; i < n; i++ {
			done := func() { times = append(times, eng.Now()) }
			if checked {
				o.start(port, demand, StreamOpts{Done: done})
			} else {
				port.Start(demand, StreamOpts{Done: done})
			}
		}
		if checked {
			pokeTrain(t, fab, 0.013, 10)
		}
		eng.Run()
		return times
	}
	on := run(false)
	if len(on) != n {
		t.Fatalf("%d of %d streams completed", len(on), n)
	}
	// The rate lands one quantum after the t=0 join (deferred
	// recompute); from there the completion is purely analytic. The
	// expectation reproduces the fabric's own float arithmetic: the
	// fair level is cap/n and the deadline demand/level later.
	want := sim.Time(quantum) + sim.Time(demand/(cap/n))
	for i, got := range on {
		if !sameBits(got, want) {
			t.Fatalf("stream %d completed at %v, want exact analytic deadline %v (quantum lag is back)", i, got, want)
		}
	}
	for i, got := range run(true) {
		if !sameBits(got, on[i]) {
			t.Fatalf("stream %d: %v without pokes vs %v under the poke train", i, on[i], got)
		}
	}
}

// TestFastForwardHonorsBurstBoundary pins the burst-boundary hazard:
// with 600 long uniform streams in flight the fabric's next deadline
// is tens of virtual seconds out, so the fabric would love to
// jump straight there — but a background burst arriving mid-stretch
// is an engine event, and the engine never leaps over a queued event.
// The burst must re-divide bandwidth within one quantum of its
// arrival (the deferred-recompute bound), visibly slowing the bulk
// streams. A run checked by the calendar oracle and a poke train must
// agree with the unchecked run to the bit.
func TestFastForwardHonorsBurstBoundary(t *testing.T) {
	const (
		ports    = 40
		perPort  = 15
		cap      = 10_000.0
		demand   = 1_000.0
		quantum  = sim.Duration(0.05)
		burstAt  = sim.Time(7.03) // off the quantum grid, mid-stretch
		burstMB  = 40_000.0
		preProbe = burstAt - 0.01
	)
	run := func(checked, withBurst bool) (bulkDone sim.Time, preRate, postRate float64) {
		eng := sim.NewEngine()
		fab := New(eng, Config{AggregateMBps: cap, Quantum: quantum})
		start := (*Port).Start
		if checked {
			o := &completionOracle{t: t, f: fab}
			start = o.start
			pokeTrain(t, fab, 0.21, 60)
		}
		var watch *Stream
		for p := 0; p < ports; p++ {
			port := fab.NewPort(2000)
			for i := 0; i < perPort; i++ {
				s := start(port, demand, StreamOpts{Done: func() {
					if t := eng.Now(); t > bulkDone {
						bulkDone = t
					}
				}})
				if watch == nil {
					watch = s
				}
			}
		}
		if withBurst {
			bg := fab.NewWeightedPort(0, 8)
			eng.At(burstAt, func() { bg.Start(burstMB, StreamOpts{}) })
		}
		eng.At(preProbe, func() { preRate = watch.Rate() })
		// One quantum after the burst instant the deferred recompute
		// must have landed; probe just past it.
		eng.At(burstAt+sim.Time(quantum)+0.001, func() { postRate = watch.Rate() })
		eng.Run()
		return bulkDone, preRate, postRate
	}

	quietDone, _, _ := run(false, false)
	burstDone, pre, post := run(false, true)
	if !(burstDone > quietDone) {
		t.Fatalf("burst had no effect on the bulk makespan (%v vs %v): the fabric jumped past the burst boundary", burstDone, quietDone)
	}
	if !(post < pre) {
		t.Fatalf("bulk rate did not drop within one quantum of the burst (pre %.3f, post %.3f)", pre, post)
	}
	chkDone, chkPre, chkPost := run(true, true)
	if !sameBits(burstDone, chkDone) ||
		math.Float64bits(pre) != math.Float64bits(chkPre) ||
		math.Float64bits(post) != math.Float64bits(chkPost) {
		t.Fatalf("checked run diverges across the burst: done %v vs %v, rates (%.6f,%.6f) vs (%.6f,%.6f)",
			burstDone, chkDone, pre, post, chkPre, chkPost)
	}
}

// TestFastForwardHonorsCapEdge is the fault-window flavor of the same
// hazard: a degraded-link edge (SetCapMBps, the hook fault injection
// drives) arriving while the fabric is deep in an uncontended stretch
// must take effect within one quantum — the wake generation counter
// invalidates the far-future deadline wake — and a run checked by the
// calendar oracle and a poke train must produce the same schedule to
// the bit.
func TestFastForwardHonorsCapEdge(t *testing.T) {
	const (
		ports   = 40
		perPort = 15
		cap     = 10_000.0
		demand  = 1_000.0
		quantum = sim.Duration(0.05)
		edgeAt  = sim.Time(3.21)
	)
	run := func(checked bool) (victimDone, bulkDone sim.Time, postRate float64) {
		eng := sim.NewEngine()
		fab := New(eng, Config{AggregateMBps: cap, Quantum: quantum})
		start := (*Port).Start
		if checked {
			o := &completionOracle{t: t, f: fab}
			start = o.start
			pokeTrain(t, fab, 0.21, 60)
		}
		var degraded *Port
		var watch *Stream
		for p := 0; p < ports; p++ {
			port := fab.NewPort(2000)
			if p == 0 {
				// The whole first port degrades; its streams count as
				// victims, every other port's as healthy bulk.
				degraded = port
				for i := 0; i < perPort; i++ {
					s := start(port, demand, StreamOpts{Done: func() {
						if t := eng.Now(); t > victimDone {
							victimDone = t
						}
					}})
					if watch == nil {
						watch = s
					}
				}
				continue
			}
			for i := 0; i < perPort; i++ {
				start(port, demand, StreamOpts{Done: func() {
					if t := eng.Now(); t > bulkDone {
						bulkDone = t
					}
				}})
			}
		}
		eng.At(edgeAt, func() { degraded.SetCapMBps(5) })
		eng.At(edgeAt+sim.Time(quantum)+0.001, func() { postRate = watch.Rate() })
		eng.Run()
		return victimDone, bulkDone, postRate
	}
	victim, bulk, post := run(false)
	if victim <= bulk {
		t.Fatalf("degraded port finished at %v, not after the healthy bulk at %v: the cap edge was jumped over", victim, bulk)
	}
	// 15 streams share a 5 MB/s port: within one quantum of the edge
	// each must be pinned at ~1/3 MB/s, far below any healthy share.
	if post > 1 {
		t.Fatalf("victim stream still at %.3f MB/s one quantum past the cap edge", post)
	}
	chkVictim, chkBulk, chkPost := run(true)
	if !sameBits(victim, chkVictim) || !sameBits(bulk, chkBulk) ||
		math.Float64bits(post) != math.Float64bits(chkPost) {
		t.Fatalf("checked run diverges across the cap edge: victim %v vs %v, bulk %v vs %v",
			victim, chkVictim, bulk, chkBulk)
	}
}
