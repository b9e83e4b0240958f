package sim

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestForkIndependence(t *testing.T) {
	g := NewRNG(1)
	c1 := g.Fork(1)
	c2 := g.Fork(2)
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Float64() == c2.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("forked streams coincide on %d/100 draws", same)
	}
}

func TestLognormalMedian(t *testing.T) {
	g := NewRNG(7)
	n := 20000
	above := 0
	for i := 0; i < n; i++ {
		if g.Lognormal(0, 0.3) > 1 {
			above++
		}
	}
	frac := float64(above) / float64(n)
	if frac < 0.47 || frac > 0.53 {
		t.Errorf("fraction above median = %.3f, want ~0.5", frac)
	}
}

func TestParetoMinimum(t *testing.T) {
	g := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := g.Pareto(2.0, 1.5)
		if v < 2.0 {
			t.Fatalf("Pareto variate %v below xm=2", v)
		}
	}
}

func TestExpMean(t *testing.T) {
	g := NewRNG(11)
	sum := 0.0
	n := 50000
	for i := 0; i < n; i++ {
		sum += g.Exp(3.0)
	}
	mean := sum / float64(n)
	if math.Abs(mean-3.0) > 0.1 {
		t.Errorf("sample mean %.3f, want ~3.0", mean)
	}
}

func TestChooseRespectsWeights(t *testing.T) {
	g := NewRNG(5)
	counts := [3]int{}
	n := 30000
	for i := 0; i < n; i++ {
		counts[g.Choose([]float64{1, 2, 1})]++
	}
	mid := float64(counts[1]) / float64(n)
	if mid < 0.46 || mid > 0.54 {
		t.Errorf("middle weight chosen %.3f of the time, want ~0.5", mid)
	}
}

func TestChooseRejectsBadWeights(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, tc := range []struct {
		name    string
		weights []float64
	}{
		{"empty", nil},
		{"zero total", []float64{0, 0}},
		{"negative", []float64{1, -1, 1}},
		{"NaN", []float64{1, nan, 1}},
		{"NaN only", []float64{nan}},
		{"+Inf", []float64{1, inf}},
		{"-Inf", []float64{1, math.Inf(-1), 1}},
		{"total overflows", []float64{math.MaxFloat64, math.MaxFloat64}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("Choose(%v) did not panic", tc.weights)
				}
			}()
			NewRNG(1).Choose(tc.weights)
		})
	}
}

// stdRNG is an RNG drawing from math/rand's own seeded source: the
// reference every lazily built stream must match.
func stdRNG(seed int64) *RNG { return &RNG{r: *rand.New(rand.NewSource(seed))} }

// rngSeeds covers math/rand's seed normalisation: zero (and every
// multiple of 2³¹−1, which takes its 89482311 substitute), negative
// seeds, seeds at and past 2³¹, ±2⁶², the int64 extremes, and a
// spread of random seeds.
func rngSeeds() []int64 {
	seeds := []int64{
		0, 1, 2, 42, -1, -2, -42,
		int32max, 2 * int32max, -3 * int32max, int32max - 1, int32max + 1, 89482311,
		1 << 31, 1<<31 + 1, 1 << 40, 1 << 62, -(1 << 62),
		math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
	}
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 24; i++ {
		s := r.Int63()
		if i%2 == 1 {
			s = -s
		}
		seeds = append(seeds, s, s%int32max)
	}
	return seeds
}

// drawAll calls every RNG method once, in a fixed order, so a stream
// that diverges anywhere in it shows up in the returned values.
func drawAll(g *RNG) []float64 {
	out := []float64{
		g.Float64(),
		float64(g.Intn(7)), float64(g.Intn(1 << 40)), float64(g.Intn(3 << 30)),
		g.Uniform(-2, 5), g.Exp(3), g.Normal(1, 2), g.Lognormal(0, 0.25),
		g.Pareto(2, 1.5), float64(g.Choose([]float64{1, 2, 0, 4})),
	}
	if g.Bernoulli(0.3) {
		out = append(out, 1)
	}
	for _, v := range g.Perm(9) {
		out = append(out, float64(v))
	}
	return out
}

// TestRNGMatchesMathRand: NewRNG's stream is rand.New(rand.NewSource(seed))'s,
// after any number of raw draws (crossing the lazy source's switch
// from computed words to the materialised register at 273/274, and
// the register's length at 607), through every method and through
// chains of Fork.
func TestRNGMatchesMathRand(t *testing.T) {
	counts := []int{0, 1, 2, 100, 271, 272, 273, 274, 275, 333, 334, 335, 606, 607, 608, 1000, 1999, 2000}
	for _, seed := range rngSeeds() {
		for _, n := range counts {
			g, want := NewRNG(seed), stdRNG(seed)
			for i := 0; i < n; i++ {
				if a, b := g.r.Uint64(), want.r.Uint64(); a != b {
					t.Fatalf("seed %d: draw %d = %d, math/rand %d", seed, i+1, a, b)
				}
			}
			if a, b := drawAll(g), drawAll(want); !slices.Equal(a, b) {
				t.Fatalf("seed %d after %d draws: methods gave %v, math/rand %v", seed, n, a, b)
			}
		}
	}
	// Every draw count from 0 to 2000 for a few seeds: the methods'
	// variable draw counts land on every offset around the switch.
	for _, seed := range []int64{0, -7, 1 << 62} {
		for n := 0; n <= 2000; n++ {
			g, want := NewRNG(seed), stdRNG(seed)
			for i := 0; i < n; i++ {
				g.r.Int63()
				want.r.Int63()
			}
			if a, b := g.Normal(0, 1), want.Normal(0, 1); a != b {
				t.Fatalf("seed %d after %d draws: Normal %v, math/rand %v", seed, n, a, b)
			}
		}
	}
}

func TestRNGForkChainsMatchMathRand(t *testing.T) {
	for _, seed := range rngSeeds()[:16] {
		g, want := NewRNG(seed), stdRNG(seed)
		for depth, label := range []int64{0, 1, 0x10f5, -3, 2561, math.MaxInt64} {
			// A child's seed is the parent's next Int63 mixed with the
			// label; its stream is that seed's math/rand stream.
			g = g.Fork(label)
			want = stdRNG(want.r.Int63() ^ int64(uint64(label)*0x9e3779b97f4a7c15>>1))
			for i := 0; i < depth*100; i++ {
				g.Float64()
				want.Float64()
			}
			if a, b := drawAll(g), drawAll(want); !slices.Equal(a, b) {
				t.Fatalf("seed %d, fork depth %d: %v, math/rand %v", seed, depth, a, b)
			}
		}
	}
}

// FuzzRNGMatchesMathRand replays a draw pattern on NewRNG and on
// math/rand's source: each byte picks a method (low nibble) and a
// parameter (high nibble); a run of raw draws lets patterns reach past
// the lazy source's switch.
func FuzzRNGMatchesMathRand(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3})
	f.Add(int64(0), []byte{0xff, 0xff, 0x10, 0x5})
	f.Add(int64(-int32max), []byte("\x0f\xf0\x07\x08\x09"))
	f.Add(int64(1<<62), []byte{0x1f, 0x2f, 0x3f, 0x4f, 0x5f, 0x6f, 0x7f, 0x8f, 0xaa})
	f.Fuzz(func(t *testing.T, seed int64, pattern []byte) {
		g, want := NewRNG(seed), stdRNG(seed)
		for i, b := range pattern {
			k, p := b&15, int(b>>4)
			var x, y float64
			switch k {
			case 0:
				x, y = g.Float64(), want.Float64()
			case 1:
				x, y = float64(g.Intn(p+1)), float64(want.Intn(p+1))
			case 2:
				x, y = float64(g.Intn(1<<(31+p))), float64(want.Intn(1<<(31+p)))
			case 3:
				x, y = g.Exp(float64(p)), want.Exp(float64(p))
			case 4:
				x, y = g.Normal(0, float64(p)), want.Normal(0, float64(p))
			case 5:
				x, y = g.Lognormal(0, float64(p)/8), want.Lognormal(0, float64(p)/8)
			case 6:
				x, y = g.Pareto(1, 1+float64(p)), want.Pareto(1, 1+float64(p))
			case 7:
				x, y = g.Uniform(0, float64(p)), want.Uniform(0, float64(p))
			case 8:
				w := []float64{1, float64(p), 3}
				x, y = float64(g.Choose(w)), float64(want.Choose(w))
			case 9:
				if g.Bernoulli(float64(p)/15) != want.Bernoulli(float64(p)/15) {
					x = 1
				}
			case 10:
				if !slices.Equal(g.Perm(p), want.Perm(p)) {
					x = 1
				}
			case 11:
				g = g.Fork(int64(p))
				want = stdRNG(want.r.Int63() ^ int64(uint64(p)*0x9e3779b97f4a7c15>>1))
			default:
				for j := 0; j < 16*(p+1); j++ {
					if g.r.Int63() != want.r.Int63() {
						x = 1
					}
				}
			}
			if x != y && !(math.IsNaN(x) && math.IsNaN(y)) {
				t.Fatalf("byte %d (%#x): %v, math/rand %v", i, b, x, y)
			}
		}
	})
}

func TestUniformInRange(t *testing.T) {
	g := NewRNG(9)
	f := func(a, b uint8) bool {
		lo, hi := float64(a), float64(a)+float64(b)+1
		v := g.Uniform(lo, hi)
		return v >= lo && v < hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the engine never executes events out of time order, no
// matter the insertion pattern.
func TestEventOrderProperty(t *testing.T) {
	f := func(times []uint16) bool {
		e := NewEngine()
		var prev Time = -1
		ok := true
		for _, tt := range times {
			at := Time(tt)
			e.At(at, func() {
				if e.Now() < prev {
					ok = false
				}
				prev = e.Now()
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
