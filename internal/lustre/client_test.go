package lustre

import (
	"math"
	"sort"
	"testing"

	"ensembleio/internal/cluster"
	"ensembleio/internal/sim"
)

// quietProfile returns a Franklin-like profile with all stochastic
// behaviour disabled so durations are exactly predictable.
func quietProfile() cluster.Profile {
	p := cluster.Franklin()
	p.NoiseSigma = 0
	p.StragglerProb = 0
	p.BackgroundMeanMBps = 0
	p.ConflictProbPerWriterPerOST = 0
	p.Quantum = 0.005
	return p
}

// spawnCalls spawns a task that issues calls in order on its own Req,
// each with the next as its completion, and exits after the last. The
// returned slice receives each call's duration as the call completes.
func spawnCalls(eng *sim.Engine, calls ...func(q *Req, k func())) []sim.Duration {
	durs := make([]sim.Duration, len(calls))
	eng.Spawn("t", func(p *sim.Task) {
		q := &Req{T: p}
		i := 0
		var start sim.Time
		var next func()
		next = func() {
			if i > 0 {
				durs[i-1] = p.Now() - start
			}
			if i == len(calls) {
				p.Exit()
				return
			}
			i++
			start = p.Now()
			calls[i-1](q, next)
		}
		next()
	})
	return durs
}

// repeat returns n copies of call.
func repeat(n int, call func(q *Req, k func())) []func(q *Req, k func()) {
	calls := make([]func(q *Req, k func()), n)
	for i := range calls {
		calls[i] = call
	}
	return calls
}

func run4Writers(t *testing.T, prof cluster.Profile, sizeMB float64) []float64 {
	t.Helper()
	eng := sim.NewEngine()
	cl := cluster.New(eng, prof, 1, 42)
	fs := NewFS(cl)
	f := fs.Create("/scratch/data")
	c := fs.ClientFor(cl.Nodes[0])
	calls := make([][]sim.Duration, 4)
	for i := 0; i < 4; i++ {
		off := int64(i) * int64(sizeMB*1e6)
		calls[i] = spawnCalls(eng, func(q *Req, k func()) { c.Write(q, f, off, int64(sizeMB*1e6), k) })
	}
	eng.Run()
	durs := make([]float64, 4)
	for i, d := range calls {
		durs[i] = float64(d[0])
	}
	return durs
}

func TestFlusherSerializedEpochsProduceHarmonics(t *testing.T) {
	prof := quietProfile()
	prof.SlotWeights = [3]float64{1, 0, 0} // always one stream per epoch
	prof.DirtyLimitMB = 0                  // no caching: pure streaming
	prof.AggregateMBps = 100
	prof.OSTs = 1
	prof.OSTServiceMBps = 100
	prof.NodeLinkMBps = 0
	durs := run4Writers(t, prof, 100) // 100 MB each at 100 MB/s exclusive
	sort.Float64s(durs)
	want := []float64{1, 2, 3, 4}
	for i, w := range want {
		if math.Abs(durs[i]-w) > 0.1 {
			t.Errorf("sorted duration[%d] = %.3f, want ~%.0f (serialized epochs)", i, durs[i], w)
		}
	}
}

func TestFlusherFairShareSingleMode(t *testing.T) {
	prof := quietProfile()
	prof.SlotWeights = [3]float64{0, 0, 1} // always admit all
	prof.DirtyLimitMB = 0
	prof.AggregateMBps = 100
	prof.OSTs = 1
	prof.OSTServiceMBps = 100
	prof.NodeLinkMBps = 0
	durs := run4Writers(t, prof, 100)
	for i, d := range durs {
		if math.Abs(d-4) > 0.1 {
			t.Errorf("duration[%d] = %.3f, want ~4 (fair share)", i, d)
		}
	}
}

func TestFlusherPairEpochs(t *testing.T) {
	prof := quietProfile()
	prof.SlotWeights = [3]float64{0, 1, 0} // pairs
	prof.DirtyLimitMB = 0
	prof.AggregateMBps = 100
	prof.OSTs = 1
	prof.OSTServiceMBps = 100
	prof.NodeLinkMBps = 0
	durs := run4Writers(t, prof, 100)
	sort.Float64s(durs)
	want := []float64{2, 2, 4, 4}
	for i, w := range want {
		if math.Abs(durs[i]-w) > 0.15 {
			t.Errorf("sorted duration[%d] = %.3f, want ~%.0f (pair epochs)", i, durs[i], w)
		}
	}
}

func TestCacheAbsorptionIsFastAndRaisesDirty(t *testing.T) {
	prof := quietProfile()
	eng := sim.NewEngine()
	cl := cluster.New(eng, prof, 1, 1)
	fs := NewFS(cl)
	f := fs.Create("/scratch/x")
	c := fs.ClientFor(cl.Nodes[0])
	durs := spawnCalls(eng, func(q *Req, k func()) {
		c.Write(q, f, 0, 64e6, k) // 64 MB fits in the 256 MB dirty budget
	})
	eng.Run()
	dur := durs[0]
	wantAbsorb := 64.0 / prof.AbsorbMBps
	if math.Abs(float64(dur)-wantAbsorb) > 0.02 {
		t.Errorf("cached write took %v, want ~%.3fs (absorb only)", dur, wantAbsorb)
	}
	if cl.Nodes[0].DirtyMB < 1 {
		t.Errorf("dirty = %v MB after absorbed write, want > 0", cl.Nodes[0].DirtyMB)
	}
	if f.Size != 64e6 {
		t.Errorf("file size %d, want 64e6", f.Size)
	}
}

func TestSmallWritesBypassCacheAndSlots(t *testing.T) {
	prof := quietProfile()
	prof.AggregateMBps = 100
	prof.OSTs = 1
	prof.OSTServiceMBps = 100
	prof.NodeLinkMBps = 0
	prof.LockCapMBps = 1e9 // no lock cap effect
	eng := sim.NewEngine()
	cl := cluster.New(eng, prof, 1, 1)
	fs := NewFS(cl)
	f := fs.Create("/scratch/x")
	c := fs.ClientFor(cl.Nodes[0])
	durs := spawnCalls(eng, func(q *Req, k func()) {
		c.Write(q, f, 0, int64(2e6), k) // 2 MB < CacheBypassBelowMB
	})
	eng.Run()
	dur := durs[0]
	if cl.Nodes[0].DirtyMB != 0 {
		t.Errorf("small write dirtied the cache: %v MB", cl.Nodes[0].DirtyMB)
	}
	if float64(dur) < 2.0/100-0.001 {
		t.Errorf("small write duration %v, want at least transfer time 0.02s", dur)
	}
}

func TestFsyncDrainsDirty(t *testing.T) {
	prof := quietProfile()
	eng := sim.NewEngine()
	cl := cluster.New(eng, prof, 1, 1)
	fs := NewFS(cl)
	f := fs.Create("/scratch/x")
	c := fs.ClientFor(cl.Nodes[0])
	synced := false
	spawnCalls(eng,
		func(q *Req, k func()) { c.Write(q, f, 0, 128e6, k) },
		func(q *Req, k func()) {
			if cl.Nodes[0].DirtyMB == 0 {
				t.Error("expected dirty data before fsync")
			}
			c.Fsync(q, k)
		},
		func(q *Req, k func()) {
			if cl.Nodes[0].DirtyMB != 0 {
				t.Errorf("dirty = %v MB after fsync, want 0", cl.Nodes[0].DirtyMB)
			}
			synced = true
			k()
		})
	eng.Run()
	if !synced {
		t.Error("fsync never completed")
	}
}

func TestUnalignedSharedWritesSlowerThanAligned(t *testing.T) {
	prof := quietProfile()
	// Strong conflict exposure so the unaligned lane's stalls dominate.
	prof.ConflictProbPerWriterPerOST = 0.3
	prof.ConflictProbMax = 0.3
	prof.ConflictDelayLoSec = 0.5
	prof.ConflictDelayHiSec = 2
	prof.LockCapMBps = 20 // make the lock cap, not the fabric, dominate
	prof.Quantum = 0.001
	measure := func(aligned bool) float64 {
		eng := sim.NewEngine()
		cl := cluster.New(eng, prof, 8, 99)
		fs := NewFS(cl)
		f := fs.Create("/scratch/shared")
		var durs [][]sim.Duration
		for rank := 0; rank < 32; rank++ {
			node := cl.NodeForTask(rank)
			c := fs.ClientFor(node)
			var off, size int64
			if aligned {
				size = 2e6 // two whole (decimal-MB) stripes
				off = int64(rank) * size
			} else {
				size = 1600000
				off = int64(rank) * size
			}
			durs = append(durs, spawnCalls(eng, repeat(4, func(q *Req, k func()) { c.Write(q, f, off, size, k) })...))
		}
		eng.Run()
		total := 0.0
		for _, ds := range durs {
			for _, d := range ds {
				total += float64(d)
			}
		}
		return total
	}
	al, un := measure(true), measure(false)
	if un <= al*1.2 {
		t.Errorf("unaligned total %.2fs not sufficiently slower than aligned %.2fs", un, al)
	}
}

func TestMDSOpsSerialize(t *testing.T) {
	prof := quietProfile()
	prof.MDSConcurrency = 1 // single service lane: ops fully serialize
	eng := sim.NewEngine()
	cl := cluster.New(eng, prof, 2, 1)
	fs := NewFS(cl)
	soloDurs := spawnCalls(eng, func(q *Req, k func()) { fs.MDSOp(q, 2048, k) })
	eng.Run()
	solo := soloDurs[0]

	eng2 := sim.NewEngine()
	cl2 := cluster.New(eng2, prof, 2, 1)
	fs2 := NewFS(cl2)
	var maxEnd sim.Time
	for i := 0; i < 8; i++ {
		spawnCalls(eng2, func(q *Req, k func()) {
			fs2.MDSOp(q, 2048, func() {
				maxEnd = max(maxEnd, q.T.Now())
				k()
			})
		})
	}
	eng2.Run()
	if float64(maxEnd) < 6*float64(solo) {
		t.Errorf("8 concurrent MDS ops finished in %v; expected serialization (~8x %v)", maxEnd, solo)
	}
}

func TestMDSConcurrencyOverlapsIndependentClients(t *testing.T) {
	prof := quietProfile() // default concurrency 16
	eng := sim.NewEngine()
	cl := cluster.New(eng, prof, 2, 1)
	fs := NewFS(cl)
	var maxEnd sim.Time
	soloDurs := spawnCalls(eng, func(q *Req, k func()) { fs.MDSOp(q, 0, k) })
	eng.Run()
	solo := soloDurs[0]

	eng2 := sim.NewEngine()
	cl2 := cluster.New(eng2, prof, 2, 1)
	fs2 := NewFS(cl2)
	for i := 0; i < 8; i++ {
		spawnCalls(eng2, func(q *Req, k func()) {
			fs2.MDSOp(q, 0, func() {
				maxEnd = max(maxEnd, q.T.Now())
				k()
			})
		})
	}
	eng2.Run()
	// 8 ops within the 16-wide service window overlap: total well under
	// 8x a solo op.
	if float64(maxEnd) > 4*float64(solo) {
		t.Errorf("8 ops took %v with concurrency 16; want overlap (solo %v)", maxEnd, solo)
	}
}

func TestWriteCapContentionScalesWithWriters(t *testing.T) {
	prof := quietProfile()
	eng := sim.NewEngine()
	cl := cluster.New(eng, prof, 1, 1)
	fs := NewFS(cl)
	f := fs.Create("/scratch/shared")
	f.activeWriters = 80
	capFew := fs.writeCapMBps(f, 1.6, true)
	f.activeWriters = 10240
	capMany := fs.writeCapMBps(f, 1.6, true)
	if capMany >= capFew/50 {
		t.Errorf("cap with 10240 writers %.3f vs 80 writers %.3f: want >50x separation", capMany, capFew)
	}
}

// TestLockPowerMemo: the memoized extent-lock power is math.Pow's
// value at every writer count, whichever order the counts come in,
// and a changed stripe count re-keys the memo.
func TestLockPowerMemo(t *testing.T) {
	prof := quietProfile()
	eng := sim.NewEngine()
	cl := cluster.New(eng, prof, 1, 1)
	fs := NewFS(cl)
	f := fs.Create("/scratch/shared")
	check := func(n int) {
		t.Helper()
		f.activeWriters = n
		w := math.Max(1, float64(n)/float64(fs.stripeTargets(f)))
		if got, want := fs.lockPower(f), math.Pow(w, prof.LockGamma); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%d writers over %d OSTs: power %v, math.Pow %v", n, fs.stripeTargets(f), got, want)
		}
	}
	for _, count := range []int{0, 1, 7, 1} { // 0: the mount's OSTs
		f.Layout.Count = count
		for n := 300; n >= 0; n-- {
			check(n)
		}
		for n := 0; n <= 300; n += 3 {
			check(n)
		}
		if f.lockPowOSTs != fs.stripeTargets(f) {
			t.Fatalf("memo keyed on %d OSTs, layout spreads over %d", f.lockPowOSTs, fs.stripeTargets(f))
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	prof := quietProfile()
	prof.NoiseSigma = 0.2 // determinism must hold even with noise on
	a := run4Writers(t, prof, 100)
	b := run4Writers(t, prof, 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different durations: %v vs %v", a, b)
		}
	}
}

func TestStatsCounters(t *testing.T) {
	prof := quietProfile()
	eng := sim.NewEngine()
	cl := cluster.New(eng, prof, 1, 1)
	fs := NewFS(cl)
	f := fs.Create("/scratch/x")
	c := fs.ClientFor(cl.Nodes[0])
	rs := NewReadState()
	spawnCalls(eng,
		func(q *Req, k func()) { c.Write(q, f, 0, 400e6, k) },          // absorb + sync job
		func(q *Req, k func()) { fs.SmallWrite(q, f, 400e6, 2048, k) }, // MDS path
		func(q *Req, k func()) { c.Read(q, f, rs, 0, 100e6, k) })
	eng.Run()
	s := fs.Stats()
	if s.WriteJobs != 1 {
		t.Errorf("WriteJobs = %d, want 1", s.WriteJobs)
	}
	if s.AbsorbedMB <= 0 {
		t.Errorf("AbsorbedMB = %v, want > 0", s.AbsorbedMB)
	}
	if s.WriteMB < 300 || s.WriteMB > 400 {
		t.Errorf("WriteMB = %v, want sync remainder ~336", s.WriteMB)
	}
	if s.SmallWrites != 1 || s.MDSOps != 1 {
		t.Errorf("small=%d mds=%d, want 1/1", s.SmallWrites, s.MDSOps)
	}
	if s.ReadCalls != 1 || s.ReadMB < 99 {
		t.Errorf("reads=%d MB=%v, want 1 call ~100MB", s.ReadCalls, s.ReadMB)
	}
	if s.PathologicalReads != 0 || s.Conflicts != 0 {
		t.Errorf("unexpected contention events: %+v", s)
	}
	if len(s.String()) == 0 {
		t.Error("empty stats string")
	}
}
