// Package runpool fans independent seeded simulations across OS
// threads and reduces the results in submission order.
//
// The paper's methodology is ensemble-over-runs: every figure and
// sweep averages many *independent* seeded simulations. Each single
// simulation must stay on its engine's lock-step schedule so that a
// given seed is bit-reproducible (the internal/sim contract, enforced
// by ensemblelint's simpurity analyzer) — but nothing couples two
// runs with different seeds, so the ensemble itself is embarrassingly
// parallel. runpool is the one place in the repo where that
// parallelism is allowed to live: strictly *above* the sim layer,
// never inside it.
//
// Determinism guarantee: Map returns results indexed by job — result
// i is fn's return value for job i, regardless of which worker ran it
// or in what order workers finished. Callers that fold the returned
// slice left-to-right therefore observe exactly the sequence a
// sequential loop would have produced, so serialized artifacts are
// byte-identical at any worker count (pinned by determinism_test.go).
package runpool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a -j style worker-count setting: n >= 1 is taken
// literally, anything else (0, negative) means "all cores"
// (GOMAXPROCS).
func Workers(n int) int {
	if n >= 1 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Map runs fn(i, jobs[i]) for every job on up to workers goroutines
// and returns the results indexed by job — never by completion order.
// workers <= 0 means all cores; a single worker degenerates to a
// plain sequential loop on the calling goroutine (no goroutines, no
// channels), so `-j 1` is exactly the pre-parallel code path.
//
// fn must treat its inputs as read-only shared state: it runs
// concurrently with other invocations of itself. A panic in any fn is
// re-raised on the calling goroutine after the remaining in-flight
// jobs drain.
func Map[J, R any](workers int, jobs []J, fn func(i int, job J) R) []R {
	results := make([]R, len(jobs))
	w := Workers(workers)
	if w > len(jobs) {
		w = len(jobs)
	}
	if w <= 1 {
		for i, j := range jobs {
			results[i] = fn(i, j)
		}
		return results
	}

	// Workers claim job indices from an atomic cursor. Claim order is
	// scheduler-dependent; it does not matter, because each worker
	// writes only results[i] and the caller reads the slice after the
	// barrier below.
	var (
		cursor int64 = -1
		wg     sync.WaitGroup
		mu     sync.Mutex
		caught any
	)
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if caught == nil {
						caught = r
					}
					mu.Unlock()
					// Stop handing out new jobs; in-flight ones finish.
					atomic.StoreInt64(&cursor, int64(len(jobs)))
				}
			}()
			for {
				i := int(atomic.AddInt64(&cursor, 1))
				if i >= len(jobs) {
					return
				}
				results[i] = fn(i, jobs[i])
			}
		}()
	}
	wg.Wait()
	if caught != nil {
		panic(caught)
	}
	return results
}

// Each is Map for side-effect-free-of-result workloads: it runs
// fn(i, jobs[i]) across the pool and returns when all jobs are done.
func Each[J any](workers int, jobs []J, fn func(i int, job J)) {
	Map(workers, jobs, func(i int, j J) struct{} {
		fn(i, j)
		return struct{}{}
	})
}
