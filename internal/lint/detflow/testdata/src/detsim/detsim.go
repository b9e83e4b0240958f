// Package detsim is golden testdata: a simulator-domain package (via
// the domain directive below) that calls into helper packages which
// launder nondeterminism. Every flagged line is a *laundering* call
// site — the sources live one to four hops away in helpers/hclock.
//
//detflow:domain sim
package detsim

import (
	"time"

	"ensembleio/internal/lint/detflow/testdata/src/helpers"
)

// Step launders a wall-clock read through a four-hop, cross-package
// chain (Level1 -> level2 -> level3 -> hclock.Read -> time.Now).
func Step() int64 {
	return helpers.Level1() // want `call to .*helpers\.Level1 launders a wall-clock read into simulator code`
}

// Shuffle launders a global math/rand draw.
func Shuffle(xs []int) []int {
	return helpers.Shuffled(xs) // want `call to .*helpers\.Shuffled launders a global math/rand draw into simulator code`
}

// Parity launders a wall-clock read through a mutually recursive pair.
func Parity(n int) bool {
	return helpers.Even(n) // want `call to .*helpers\.Even launders a wall-clock read into simulator code`
}

// MethodValue takes a method value without calling it; the reference
// alone is the laundering site (it may be invoked later).
func MethodValue() float64 {
	m := &helpers.Meter{}
	f := m.Sample // want `call to .*Meter\)\.Sample launders a global math/rand draw into simulator code`
	return f()
}

// Closure launders a wall-clock read hidden inside a returned closure
// (the fact is attributed to the function that builds the closure).
func Closure() int64 {
	tick := helpers.Timer() // want `call to .*helpers\.Timer launders a wall-clock read into simulator code`
	return tick()
}

// Keys launders map-iteration order into a slice.
func Keys(m map[string]int) []string {
	return helpers.KeysOf(m) // want `call to .*helpers\.KeysOf launders map-iteration-order dependence into simulator code`
}

// Sum launders an order-sensitive float accumulation.
func Sum(m map[string]float64) float64 {
	return helpers.Total(m) // want `call to .*helpers\.Total launders order-sensitive float accumulation .* into simulator code`
}

// Fanout launders a goroutine launch — fatal in the simulator domain.
func Fanout() {
	helpers.Fan(func() {}) // want `call to .*helpers\.Fan launders a goroutine launch into simulator code`
}

// Memo launders a sync.Map-backed cache into the simulator: memo
// caches on this side must be map-free.
func Memo() int {
	return helpers.Memoized("epoch", func() int { return 1 }) // want `call to .*helpers\.Memoized launders a scheduler-sensitive value into simulator code`
}

// Clean calls are never findings.
func Clean(a, b int) int {
	return helpers.Pure(a, b)
}

// Allowed shows the escape hatch: a structured allow directive with a
// reason suppresses the whole-program finding at the call site.
func Allowed() int64 {
	//lint:allow(detflow) golden testdata: proves suppression reaches whole-program findings
	return helpers.Level1()
}

// localTick reads the clock *directly*. That is simpurity's finding,
// not detflow's — detflow reports only laundered facts — so neither
// this line nor the call below it is flagged here.
func localTick() int64 {
	return time.Now().UnixNano()
}

// CallsLocal calls a same-domain function that carries the fact
// directly: the leak is already in simpurity's jurisdiction at its
// source, so detflow stays silent.
func CallsLocal() int64 {
	return localTick()
}
