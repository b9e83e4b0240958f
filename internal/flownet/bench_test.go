package flownet

import (
	"testing"

	"ensembleio/internal/sim"
)

// benchFabric starts streams across ports and returns after the poke
// event has populated rates, leaving the fabric mid-run.
func benchFabric(ports, streamsPerPort int, stagger sim.Duration) (*sim.Engine, *Fabric) {
	eng := sim.NewEngine()
	fab := New(eng, Config{AggregateMBps: 10_000, Quantum: 0.05})
	for p := 0; p < ports; p++ {
		port := fab.NewPort(2000)
		for s := 0; s < streamsPerPort; s++ {
			demand := 100 + float64((p*streamsPerPort+s)%7)*25
			if stagger > 0 {
				at := sim.Time(p*streamsPerPort+s) * stagger
				eng.At(at, func() { port.Start(demand, StreamOpts{}) })
			} else {
				port.Start(demand, StreamOpts{})
			}
		}
	}
	return eng, fab
}

// BenchmarkFlownetRefresh measures the full refresh machinery —
// advance, completion, incremental recompute, and next-wake scheduling
// — by running stream populations to completion through the engine.
func BenchmarkFlownetRefresh(b *testing.B) {
	cases := []struct {
		name           string
		ports, perPort int
		stagger        sim.Duration
	}{
		// Steady: every stream joins at t=0, so after one recompute the
		// refreshes are completion-driven with long unchanged stretches.
		{"steady256", 32, 8, 0},
		// Churn: staggered joins force a membership change (and a
		// recompute) on nearly every refresh.
		{"churn256", 32, 8, 0.002},
		// Beyond exactThreshold: quantum batching, no exact min-scan.
		{"quantum1024", 64, 16, 0},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng, fab := benchFabric(c.ports, c.perPort, c.stagger)
				eng.Run()
				if fab.ActiveStreams() != 0 {
					b.Fatalf("%d streams still active", fab.ActiveStreams())
				}
			}
		})
	}
}

// BenchmarkFlownetRecompute isolates one two-level water-fill pass
// over a steady population (the cost the dirty flag now skips on
// unchanged-membership refreshes).
func BenchmarkFlownetRecompute(b *testing.B) {
	eng, fab := benchFabric(32, 8, 0)
	// Process the poke so every stream is rated and listed.
	eng.RunUntil(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fab.recompute(eng.Now())
	}
}

// BenchmarkFastForward measures the completion calendar in the regimes
// that stress it: steady10k (completion clusters, long unchanged
// stretches), churn10k (constant joins re-rate the whole population,
// the regime calendar compaction bounds), poked10k (refreshes vastly
// outnumber rate changes, so each wake-up is a calendar peek), and
// repeated (identical uniform phases, GCRM's writer storms).
func BenchmarkFastForward(b *testing.B) {
	cases := []struct {
		name           string
		ports, perPort int
		stagger        sim.Duration
	}{
		{"steady10k", 250, 40, 0},
		{"churn10k", 250, 40, 0.0005},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng, fab := benchFabric(c.ports, c.perPort, c.stagger)
				eng.Run()
				if fab.ActiveStreams() != 0 {
					b.Fatalf("%d streams still active", fab.ActiveStreams())
				}
			}
		})
	}
	// poked10k: a steady uniform 10k-stream stretch whose fabric is
	// poked by an external event train (the flownet face of lustre's
	// metadata and drain traffic). Rates never change between pokes,
	// so each refresh is pure next-wake computation.
	b.Run("poked10k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := sim.NewEngine()
			fab := New(eng, Config{AggregateMBps: 10_000, Quantum: 0.05})
			for p := 0; p < 250; p++ {
				port := fab.NewPort(2000)
				for s := 0; s < 40; s++ {
					port.Start(10, StreamOpts{})
				}
			}
			for k := 1; k <= 1000; k++ {
				eng.At(sim.Time(k)*0.01, fab.poke)
			}
			eng.Run()
			if fab.ActiveStreams() != 0 {
				b.Fatalf("%d streams still active", fab.ActiveStreams())
			}
		}
	})
	// repeated: eight identical uniform phases on one fabric, the
	// repeated-phase regime of GCRM's writer storms.
	b.Run("repeated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := sim.NewEngine()
			fab := New(eng, Config{AggregateMBps: 5000, Quantum: 0.05})
			ports := make([]*Port, 80)
			for j := range ports {
				ports[j] = fab.NewPort(2000)
			}
			for phase := 0; phase < 8; phase++ {
				repeatedPhase(eng, ports, 8, (*Port).Start)
			}
		}
	})
}
