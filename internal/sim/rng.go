package sim

import (
	"fmt"
	"math"
	"math/rand"
)

// RNG is a seeded source of the random variates used by the simulator.
// It wraps math/rand with the distributions needed for service-time
// variability modelling. RNG is not safe for concurrent use; in the
// lock-step runtime only one process executes at a time, so a single
// RNG per simulation is safe.
//
// Every stream is exactly math/rand's rand.New(rand.NewSource(seed))
// stream, rebuilt lazily: see lazySource.
type RNG struct {
	r   rand.Rand
	src lazySource
}

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed int64) *RNG {
	g := &RNG{}
	g.src.Seed(seed)
	g.r = *rand.New(&g.src)
	return g
}

// The constants of math/rand's additive lagged Fibonacci generator
// (its rngSource): a 607-word register, tap 273, seeded by the
// Lehmer generator x' = 48271·x mod (2³¹−1).
const (
	rngLen   = 607
	rngTap   = 273
	rngFeed  = rngLen - rngTap
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	// rngSeedSteps is how many Lehmer steps seeding takes: 20 warm-up
	// steps, then three per register word.
	rngSeedSteps = 20 + 3*rngLen
)

// rngCooked is math/rand's unexported rngCooked table, and rngPow[n]
// is 48271ⁿ mod (2³¹−1). Both are shared by every lazySource.
var rngCooked, rngPow = rngTables()

// rngTables computes rngPow and recovers rngCooked from the first 607
// outputs of rand.NewSource(1), so no copy of the table is vendored.
// A fresh source's output k (1-based) is vec[feed]+vec[tap] with feed
// = 334−k and tap = 607−k (indices mod 607), and each output is
// stored back at feed. So the seeded register is, in this order:
//
//	k = 274…334: vec[334−k] = out_k − out_{k−273}
//	k = 335…607: vec[941−k] = out_k − out_{k−273}
//	k = 1…273:   vec[334−k] = out_k − vec[607−k]
//
// and rngCooked[i] = vec[i] ^ mix(1, i).
func rngTables() (cooked [rngLen]int64, pow [rngSeedSteps + 1]int64) {
	pow[0] = 1
	for n := 1; n < len(pow); n++ {
		pow[n] = pow[n-1] * 48271 % int32max
	}
	src := rand.NewSource(1).(rand.Source64)
	var out [rngLen + 1]int64 // out[k] is output k, 1-based
	for k := 1; k <= rngLen; k++ {
		out[k] = int64(src.Uint64())
	}
	var vec [rngLen]int64
	for k := rngTap + 1; k <= rngFeed; k++ {
		vec[rngFeed-k] = out[k] - out[k-rngTap]
	}
	for k := rngFeed + 1; k <= rngLen; k++ {
		vec[rngFeed+rngLen-k] = out[k] - out[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		vec[rngFeed-k] = out[k] - vec[rngLen-k]
	}
	for i := range cooked {
		cooked[i] = vec[i] ^ rngMix(&pow, 1, i)
	}
	return cooked, pow
}

// rngMix is the seed-dependent half of register word i for a
// normalised seed x: the three Lehmer states x·48271ⁿ for n = 21+3i,
// 22+3i and 23+3i, packed as math/rand's seeding packs them.
func rngMix(pow *[rngSeedSteps + 1]int64, x int64, i int) int64 {
	n := 21 + 3*i
	a := x * pow[n] % int32max
	b := x * pow[n+1] % int32max
	c := x * pow[n+2] % int32max
	return a<<40 ^ b<<20 ^ c
}

// lazySource is a rand.Source64 whose stream is exactly that of
// rand.NewSource(seed), without seeding a 4.9 KB register up front.
// For the first 273 draws both register words an output reads are
// still as seeding left them, so output k is word(334−k) +
// word(607−k), each word computed on demand from the shared tables.
// Draw 274 is the first to read a word an earlier draw overwrote: it
// materialises the real source, discards its first 273 outputs and
// continues from there. Most simulator streams (a Lustre client's,
// say) never get that far.
type lazySource struct {
	x   int64         // seed normalised as math/rand normalises it
	n   int           // draws served lazily so far
	src rand.Source64 // the materialised source, after rngTap draws
}

// Seed resets the source to rand.NewSource(seed)'s state.
func (s *lazySource) Seed(seed int64) {
	x := seed % int32max
	if x < 0 {
		x += int32max
	}
	if x == 0 {
		x = 89482311
	}
	*s = lazySource{x: x}
}

func (s *lazySource) word(i int) int64 { return rngCooked[i] ^ rngMix(&rngPow, s.x, i) }

// Uint64 returns the next output of the stream.
func (s *lazySource) Uint64() uint64 {
	if s.src == nil {
		if s.n < rngTap {
			s.n++
			return uint64(s.word(rngFeed-s.n) + s.word(rngLen-s.n))
		}
		s.src = rand.NewSource(s.x).(rand.Source64)
		for range rngTap {
			s.src.Uint64()
		}
	}
	return s.src.Uint64()
}

// Int63 returns the next output of the stream with its top bit cleared.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Fork derives an independent child generator. The child stream is a
// deterministic function of the parent seed stream and the label,
// letting subsystems draw variates without perturbing each other's
// sequences when call orders change.
func (g *RNG) Fork(label int64) *RNG {
	return NewRNG(g.r.Int63() ^ int64(uint64(label)*0x9e3779b97f4a7c15>>1))
}

// Float64 returns a uniform variate in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform int in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Uniform returns a uniform variate in [lo,hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// Exp returns an exponential variate with the given mean.
func (g *RNG) Exp(mean float64) float64 {
	return g.r.ExpFloat64() * mean
}

// Normal returns a normal variate with the given mean and standard
// deviation.
func (g *RNG) Normal(mean, sd float64) float64 {
	return mean + sd*g.r.NormFloat64()
}

// Lognormal returns a lognormal variate with median exp(mu) and log
// standard deviation sigma. For service-time jitter, use mu=0 so the
// median multiplier is 1.
func (g *RNG) Lognormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*g.r.NormFloat64())
}

// Pareto returns a Pareto variate with minimum xm and shape alpha.
// Small alpha (e.g. 1.5) produces the heavy-tailed stragglers seen in
// shared production file systems.
func (g *RNG) Pareto(xm, alpha float64) float64 {
	u := g.r.Float64()
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	return xm / math.Pow(u, 1/alpha)
}

// Bernoulli reports true with probability p.
func (g *RNG) Bernoulli(p float64) bool { return g.r.Float64() < p }

// Choose returns an index in [0,len(weights)) with probability
// proportional to the weights. It panics on an empty or all-zero
// weight vector, and on a negative, NaN or infinite weight.
func (g *RNG) Choose(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if !(w >= 0) || math.IsInf(w, 1) {
			panic(fmt.Sprintf("sim: Choose weight %v is not finite and non-negative", w))
		}
		total += w
	}
	if !(total > 0) || math.IsInf(total, 1) {
		panic("sim: Choose requires a positive, finite total weight")
	}
	x := g.r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
