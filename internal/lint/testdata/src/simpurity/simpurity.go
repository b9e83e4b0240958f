// Package simpurity is golden testdata: simulator-purity violations
// and their legal counterparts.
package simpurity

import (
	coro "iter"
	"math/rand"
	"runtime"
	"sync"
	"time"

	_ "ensembleio/internal/runpool" // want `simulator package imports internal/runpool`
)

func flagged() {
	_ = time.Now()                     // want `wall-clock time.Now`
	_ = time.Since(time.Time{})        // want `wall-clock time.Since`
	time.Sleep(time.Second)            // want `wall-clock time.Sleep`
	_ = rand.Int()                     // want `global math/rand Int`
	_ = rand.Float64()                 // want `global math/rand Float64`
	rand.Shuffle(0, func(i, j int) {}) // want `global math/rand Shuffle`
	runtime.GOMAXPROCS(0)              // want `scheduler-sensitive runtime.GOMAXPROCS`
	_ = runtime.NumCPU()               // want `scheduler-sensitive runtime.NumCPU`
}

func pooled() {
	var p sync.Pool // want `sync.Pool in simulator code`
	p.Put(&struct{}{})
	q := &sync.Pool{New: func() any { return new(int) }} // want `sync.Pool in simulator code`
	_ = q.Get()
}

// A sync.Map-keyed memo cache is the other scheduler-shaped cache
// trap: simulator memoization must key on deterministic slices.
func memoCached() {
	var cache sync.Map // want `sync.Map in simulator code`
	cache.Store("epoch", 1)
	_, _ = cache.Load("epoch")
}

func goroutines() {
	go func() {}() // want `goroutine launch in simulator code`
	done := make(chan struct{})
	go close(done) // want `goroutine launch in simulator code`
	<-done
}

// Pulling a sequence runs it as a coroutine on a goroutine of its own.
// The import alias does not hide it.
func coroutines(seq func(yield func(int) bool), seq2 func(yield func(int, int) bool)) {
	next, stop := coro.Pull(seq) // want `coroutine iter\.Pull in simulator code`
	defer stop()
	_, _ = next()
	next2, stop2 := coro.Pull2(seq2) // want `coroutine iter\.Pull2 in simulator code`
	defer stop2()
	_, _, _ = next2()
	// Ranging over a sequence is a plain call, not a coroutine.
	for range seq {
	}
}

func allowed() {
	// Seeded generators are the sanctioned source of variates.
	r := rand.New(rand.NewSource(42))
	_ = r.Float64()
	// Pure time values don't read the clock.
	const tick = 3 * time.Second
	_ = tick
	// Type references are not draws from the global source.
	var src rand.Source = rand.NewSource(1)
	_ = src
	// Justified escape hatch.
	//lint:allow simpurity timing instrumentation for a debug build
	_ = time.Now()
	// A launch the author has justified is suppressed like any other
	// finding (the simulator itself launches none).
	//lint:allow simpurity debug-only watchdog, never on a simulated path
	go func() {}()
	_ = runtime.Version() // scheduler-insensitive runtime call
	// Other sync primitives are legal; only Pool's scheduler-ordered
	// recycling is banned.
	var mu sync.Mutex
	mu.Lock()
	mu.Unlock()
	var once sync.Once
	once.Do(func() {})
}
