// Package helpers is golden testdata: an out-of-domain utility
// package whose functions launder nondeterminism. None of these are
// findings here — the findings appear at the call sites in the
// domain-scoped packages (detsim, detstats).
package helpers

import (
	coro "iter"
	"math/rand"
	"sync"
	"time"

	"ensembleio/internal/lint/detflow/testdata/src/hclock"
)

// Level1 -> level2 -> level3 -> hclock.Read -> time.Now: a four-hop,
// cross-package wall-clock chain.
func Level1() int64 { return level2() }

func level2() int64 { return level3() }

func level3() int64 { return hclock.Read() }

// Shuffled draws from the global math/rand generator.
func Shuffled(xs []int) []int {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	return xs
}

// Even/Odd are mutually recursive; the wall-clock fact inside Odd
// must survive the cycle and reach both summaries.
func Even(n int) bool {
	if n == 0 {
		return true
	}
	return !Odd(n - 1)
}

func Odd(n int) bool {
	if n == 0 {
		_ = time.Now() // cycle-internal source
		return false
	}
	return !Even(n - 1)
}

// Meter.Sample draws global randomness; taking the method value is as
// good as calling it.
type Meter struct{}

func (m *Meter) Sample() float64 { return rand.Float64() }

// Timer returns a closure that reads the clock; the fact is
// attributed to Timer itself (the closure runs with its obligations).
func Timer() func() int64 {
	return func() int64 { return time.Now().UnixNano() }
}

// KeysOf lets map-iteration order escape into the returned slice.
func KeysOf(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// Total accumulates floats in map-iteration order.
func Total(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m {
		total += v
	}
	return total
}

// Fan launches a goroutine. Fatal in the simulator domain, legal in
// the statistics domain.
func Fan(f func()) {
	done := make(chan struct{})
	go func() { f(); close(done) }()
	<-done
}

// Coroutine pulls one value from seq. The pull runs seq as a coroutine
// on a goroutine of its own: a goroutine launch behind package iter.
func Coroutine(seq func(yield func(int) bool)) int {
	next, stop := coro.Pull(seq)
	defer stop()
	v, _ := next()
	return v
}

// Memoized caches f's result in a sync.Map — the scheduler-shaped
// cache a simulator must not adopt (its memo caches key on plain
// slices with deterministic eviction). The fact is scheduler
// sensitivity, carried by any use of the type.
func Memoized(k string, f func() int) int {
	var cache sync.Map
	if v, ok := cache.Load(k); ok {
		return v.(int)
	}
	v := f()
	cache.Store(k, v)
	return v
}

// Pure is determinism-clean; calls to it are never findings.
func Pure(a, b int) int {
	if a > b {
		return a
	}
	return b
}
