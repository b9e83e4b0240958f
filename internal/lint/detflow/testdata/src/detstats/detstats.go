// Package detstats is golden testdata: a statistics-domain package.
// Its forbidden set differs from the simulator's — wall clock, global
// rand, map order, and float accumulation order are out, but
// goroutines and scheduler use are host-side legal — so the same
// helpers produce a different finding set than in detsim.
//
//detflow:domain stats
package detstats

import (
	"ensembleio/internal/lint/detflow/testdata/src/helpers"
)

// Mean launders an order-sensitive float accumulation into the
// statistics layer.
func Mean(m map[string]float64) float64 {
	return helpers.Total(m) // want `call to .*helpers\.Total launders order-sensitive float accumulation .* into statistics code`
}

// Stamp launders a wall-clock read.
func Stamp() int64 {
	return helpers.Level1() // want `call to .*helpers\.Level1 launders a wall-clock read into statistics code`
}

// Par fans work across goroutines. Legal here: the statistics domain
// forbids value-affecting nondeterminism, not host-side parallelism.
func Par() {
	helpers.Fan(func() {})
}

// Pulled pulls through a coroutine. Legal here for the same reason.
func Pulled() int {
	return helpers.Coroutine(func(yield func(int) bool) { yield(1) })
}
