package flownet

import (
	"math"
	"testing"
	"testing/quick"

	"ensembleio/internal/sim"
)

const q = 0.01 // fine quantum for accuracy tests

func newFab(t *testing.T, agg float64) (*sim.Engine, *Fabric) {
	t.Helper()
	eng := sim.NewEngine()
	return eng, New(eng, Config{AggregateMBps: agg, Quantum: q})
}

// transfer spawns a task that moves demandMB through port, then hands
// the transfer's duration and end time to done (if non-nil) and exits.
func transfer(eng *sim.Engine, port *Port, demandMB float64, opts StreamOpts, done func(d sim.Duration, end sim.Time)) {
	eng.Spawn("w", func(p *sim.Task) {
		start := p.Now()
		port.Transfer(p, demandMB, opts, func() {
			if done != nil {
				done(p.Now()-start, p.Now())
			}
			p.Exit()
		})
	})
}

// into returns a transfer callback that stores the duration in *d.
func into(d *sim.Duration) func(sim.Duration, sim.Time) {
	return func(got sim.Duration, _ sim.Time) { *d = got }
}

func TestSingleStreamDuration(t *testing.T) {
	eng, fab := newFab(t, 100)
	port := fab.NewPort(0)
	var dur sim.Duration
	transfer(eng, port, 500, StreamOpts{}, into(&dur)) // 500 MB at 100 MB/s
	eng.Run()
	if math.Abs(float64(dur)-5.0) > 2*q {
		t.Errorf("duration %v, want ~5s", dur)
	}
}

func TestEqualSharing(t *testing.T) {
	eng, fab := newFab(t, 100)
	durs := make([]sim.Duration, 4)
	for i := 0; i < 4; i++ {
		port := fab.NewPort(0)
		transfer(eng, port, 100, StreamOpts{}, into(&durs[i]))
	}
	eng.Run()
	// 4 equal streams on 4 ports, 100 MB each at 25 MB/s -> 4 s.
	for i, d := range durs {
		if math.Abs(float64(d)-4.0) > 3*q {
			t.Errorf("stream %d duration %v, want ~4s", i, d)
		}
	}
}

func TestPortCapBinds(t *testing.T) {
	eng, fab := newFab(t, 1000)
	slow := fab.NewPort(10) // local link 10 MB/s
	fast := fab.NewPort(0)
	var dSlow, dFast sim.Duration
	transfer(eng, slow, 100, StreamOpts{}, into(&dSlow))
	transfer(eng, fast, 100, StreamOpts{}, into(&dFast))
	eng.Run()
	if math.Abs(float64(dSlow)-10.0) > 5*q {
		t.Errorf("capped stream duration %v, want ~10s", dSlow)
	}
	// The fast port gets the residual 990 MB/s.
	if math.Abs(float64(dFast)-100.0/990.0) > 5*q {
		t.Errorf("uncapped stream duration %v, want ~0.101s", dFast)
	}
}

func TestStreamRateCap(t *testing.T) {
	eng, fab := newFab(t, 1000)
	port := fab.NewPort(0)
	var dur sim.Duration
	transfer(eng, port, 50, StreamOpts{RateCap: 5}, into(&dur))
	eng.Run()
	if math.Abs(float64(dur)-10.0) > 5*q {
		t.Errorf("rate-capped duration %v, want ~10s", dur)
	}
}

func TestWithinPortFairness(t *testing.T) {
	eng, fab := newFab(t, 40)
	port := fab.NewPort(0)
	durs := make([]sim.Duration, 4)
	for i := 0; i < 4; i++ {
		transfer(eng, port, 100, StreamOpts{}, into(&durs[i]))
	}
	eng.Run()
	// 4 streams share one port at 40 MB/s -> 10 MB/s each -> 10 s.
	for i, d := range durs {
		if math.Abs(float64(d)-10.0) > 5*q {
			t.Errorf("stream %d duration %v, want ~10s", i, d)
		}
	}
}

func TestWeightedPorts(t *testing.T) {
	eng, fab := newFab(t, 100)
	heavy := fab.NewWeightedPort(0, 3)
	light := fab.NewWeightedPort(0, 1)
	var dHeavy, dLight sim.Duration
	transfer(eng, heavy, 300, StreamOpts{}, into(&dHeavy))
	transfer(eng, light, 100, StreamOpts{}, into(&dLight))
	eng.Run()
	// heavy gets 75 MB/s, light 25 MB/s -> both finish at 4 s.
	if math.Abs(float64(dHeavy)-4.0) > 5*q {
		t.Errorf("heavy duration %v, want ~4s", dHeavy)
	}
	if math.Abs(float64(dLight)-4.0) > 5*q {
		t.Errorf("light duration %v, want ~4s", dLight)
	}
}

func TestResidualRedistribution(t *testing.T) {
	eng, fab := newFab(t, 100)
	capped := fab.NewPort(0)
	free := fab.NewPort(0)
	var dFree sim.Duration
	transfer(eng, capped, 1000, StreamOpts{RateCap: 10}, nil)
	transfer(eng, free, 90, StreamOpts{}, into(&dFree))
	eng.Run()
	// capped stream uses 10 MB/s; free one should get ~90 MB/s -> 1 s.
	if math.Abs(float64(dFree)-1.0) > 5*q {
		t.Errorf("free duration %v, want ~1s", dFree)
	}
}

func TestSequentialTransfersAccumulate(t *testing.T) {
	eng, fab := newFab(t, 50)
	port := fab.NewPort(0)
	var total sim.Duration
	eng.Spawn("w", func(p *sim.Task) {
		i := 0
		var next func()
		next = func() {
			if i == 4 {
				p.Exit()
				return
			}
			i++
			start := p.Now()
			port.Transfer(p, 25, StreamOpts{}, func() { // 0.5s each
				total += p.Now() - start
				next()
			})
		}
		next()
	})
	eng.Run()
	if math.Abs(float64(total)-2.0) > 10*q {
		t.Errorf("total %v, want ~2s", total)
	}
}

func TestZeroDemandCompletesImmediately(t *testing.T) {
	eng, fab := newFab(t, 10)
	port := fab.NewPort(0)
	var dur sim.Duration
	transfer(eng, port, 0, StreamOpts{}, into(&dur))
	eng.Run()
	if dur != 0 {
		t.Errorf("zero-demand duration %v, want 0", dur)
	}
}

func TestLateJoinerShares(t *testing.T) {
	eng, fab := newFab(t, 100)
	a := fab.NewPort(0)
	b := fab.NewPort(0)
	var dA sim.Duration
	transfer(eng, a, 150, StreamOpts{}, into(&dA))
	eng.Spawn("b", func(p *sim.Task) {
		p.Sleep(1, func() { b.Transfer(p, 1000, StreamOpts{}, p.Exit) })
	})
	eng.Run()
	// a runs alone at 100 MB/s for 1 s (100 MB), then shares at 50 MB/s
	// for the remaining 50 MB -> 1 s more. Total ~2 s.
	if math.Abs(float64(dA)-2.0) > 10*q {
		t.Errorf("duration %v, want ~2s", dA)
	}
}

// Conservation property: N streams of equal demand through one
// saturated fabric take ~ totalBytes/capacity regardless of port
// arrangement.
func TestConservationProperty(t *testing.T) {
	f := func(nPorts, perPort uint8) bool {
		np := int(nPorts%8) + 1
		pp := int(perPort%4) + 1
		eng := sim.NewEngine()
		fab := New(eng, Config{AggregateMBps: 200, Quantum: q})
		var last sim.Time
		for i := 0; i < np; i++ {
			port := fab.NewPort(0)
			for j := 0; j < pp; j++ {
				transfer(eng, port, 100, StreamOpts{}, func(_ sim.Duration, end sim.Time) { last = end })
			}
		}
		eng.Run()
		want := float64(np*pp) * 100 / 200
		return math.Abs(float64(last)-want) < want*0.05+5*q
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestWithinPortWeights(t *testing.T) {
	eng, fab := newFab(t, 100)
	port := fab.NewPort(0)
	var dHeavy, dLight sim.Duration
	transfer(eng, port, 75, StreamOpts{Weight: 3}, into(&dHeavy))
	transfer(eng, port, 25, StreamOpts{Weight: 1}, into(&dLight))
	eng.Run()
	// Weighted shares 75/25 MB/s: both finish at ~1 s.
	if math.Abs(float64(dHeavy)-1) > 5*q || math.Abs(float64(dLight)-1) > 5*q {
		t.Errorf("weighted durations %v/%v, want ~1s each", dHeavy, dLight)
	}
}

func TestManyStreamsBatchMode(t *testing.T) {
	// Push past the exact-scheduling threshold: 600 concurrent streams
	// across 150 ports must still conserve bytes.
	eng := sim.NewEngine()
	fab := New(eng, Config{AggregateMBps: 600, Quantum: 0.05})
	var last sim.Time
	for i := 0; i < 150; i++ {
		port := fab.NewPort(0)
		for j := 0; j < 4; j++ {
			transfer(eng, port, 10, StreamOpts{}, func(_ sim.Duration, end sim.Time) { last = max(last, end) })
		}
	}
	eng.Run()
	// 600 streams x 10 MB at 600 MB/s total -> ~10 s.
	if math.Abs(float64(last)-10) > 0.5 {
		t.Errorf("batch-mode makespan %v, want ~10s", last)
	}
	if fab.ActiveStreams() != 0 {
		t.Errorf("%d streams still active", fab.ActiveStreams())
	}
}

func TestStreamRateObservable(t *testing.T) {
	eng, fab := newFab(t, 100)
	port := fab.NewPort(0)
	var st *Stream
	eng.Spawn("w", func(p *sim.Task) {
		st = port.Start(100, StreamOpts{Done: p.Block(p.Exit)})
	})
	eng.Spawn("check", func(p *sim.Task) {
		p.Sleep(0.5, func() {
			if r := st.Rate(); math.Abs(r-100) > 1 {
				t.Errorf("mid-flight rate %v, want ~100", r)
			}
			p.Exit()
		})
	})
	eng.Run()
}

// repeatedPhase starts perPort uniform streams of 100 MB on each port
// through start, drains the engine, and returns the phase's completion
// instant. Uniform streams finish together, so each phase costs
// exactly one water-fill.
func repeatedPhase(eng *sim.Engine, ports []*Port, perPort int,
	start func(*Port, float64, StreamOpts) *Stream) sim.Time {
	var done sim.Time
	for _, p := range ports {
		for s := 0; s < perPort; s++ {
			start(p, 100, StreamOpts{Done: func() {
				if t := eng.Now(); t > done {
					done = t
				}
			}})
		}
	}
	eng.Run()
	return done
}

// TestRepeatedPhasesBitIdentical pins the repeated-phase regime (GCRM's
// uniform writer storms): an identical phase run again on the same
// fabric reproduces the first phase's duration to the bit, with the
// calendar checked by the oracle at every completion and poke.
func TestRepeatedPhasesBitIdentical(t *testing.T) {
	eng := sim.NewEngine()
	fab := New(eng, Config{AggregateMBps: 5000, Quantum: 0.05})
	o := &completionOracle{t: t, f: fab}
	ports := make([]*Port, 4)
	for i := range ports {
		ports[i] = fab.NewPort(2000)
	}
	// Each poke train ends inside its 0.64 s phase, so the second phase
	// starts exactly where the first drained.
	start1 := eng.Now()
	pokeTrain(t, fab, 0.011, 0.6)
	d1 := repeatedPhase(eng, ports, 8, o.start) - start1
	start2 := eng.Now()
	pokeTrain(t, fab, 0.011, 0.6)
	d2 := repeatedPhase(eng, ports, 8, o.start) - start2
	if math.Float64bits(float64(d1)) != math.Float64bits(float64(d2)) {
		t.Fatalf("repeated phase duration %v differs from the first %v", d2, d1)
	}
	if o.n != 2*len(ports)*8 {
		t.Fatalf("oracle saw %d of %d completions", o.n, 2*len(ports)*8)
	}
}
