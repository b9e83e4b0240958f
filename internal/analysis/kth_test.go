package analysis

import (
	"math"
	"math/bits"
	"sort"
	"testing"

	"ensembleio/internal/sim"
)

// kthInputs are selection inputs: duplicates, signed zeros, infinities
// and NaNs, and the sorted, reversed, all-equal and organ-pipe shapes
// that push a quickselect onto its worst pivots, at lengths on both
// sides of the insertion-sort cutoff.
func kthInputs() map[string][]float64 {
	rng := sim.NewRNG(5)
	in := map[string][]float64{
		"one":        {3},
		"dups":       {2, 1, 2, 2, 0, 1, 2, 5, 1, 1, 2, 0, 5, 5, 2, 1, 0, 2},
		"zeros":      {0, math.Copysign(0, -1), 1, -1, 0, math.Copysign(0, -1), 0.5, -0.5, 0, 0, 0, 0, 0, 0, 2},
		"infs":       {math.Inf(1), 1, math.Inf(-1), 0, math.Inf(1), -3, 2, math.Inf(-1), 7, 7, 7, 1, 0, 4, 4, 9},
		"nan":        {3, math.NaN(), 1, 2, math.NaN(), 0, math.Inf(-1), 5, 5, 1, 8, 2, 2, 9, 4, 6},
		"all-equal":  make([]float64, 100),
		"sorted":     make([]float64, 200),
		"reversed":   make([]float64, 200),
		"organ-pipe": make([]float64, 201),
		"random":     make([]float64, 300),
		"coarse":     make([]float64, 257),
	}
	for i := range in["all-equal"] {
		in["all-equal"][i] = 1.5
	}
	for i := range in["sorted"] {
		in["sorted"][i] = float64(i)
		in["reversed"][i] = float64(200 - i)
	}
	for i := range in["organ-pipe"] {
		in["organ-pipe"][i] = float64(min(i, 200-i))
	}
	for i := range in["random"] {
		in["random"][i] = rng.Exp(1)
	}
	for i := range in["coarse"] {
		in["coarse"][i] = float64(rng.Intn(4))
	}
	return in
}

// TestKthMatchesSort: for every k, and for every partition budget from
// none (sort at once) to the full one, the selected element equals the
// sorted copy's k-th, and xs is partitioned around it.
func TestKthMatchesSort(t *testing.T) {
	for name, xs := range kthInputs() {
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		full := 2 * bits.Len(uint(len(xs)))
		for budget := 0; budget <= full; budget++ {
			for k := range xs {
				ys := append([]float64(nil), xs...)
				got := selectK(ys, k, budget)
				if !(got == sorted[k] || math.IsNaN(got) && math.IsNaN(sorted[k])) {
					t.Fatalf("%s budget %d: element %d is %v, sorted %v", name, budget, k, got, sorted[k])
				}
				if !sameFloat(got, ys[k]) {
					t.Fatalf("%s budget %d: returned %v but left %v at %d", name, budget, got, ys[k], k)
				}
				less := func(a, b float64) bool { return a < b || math.IsNaN(a) && !math.IsNaN(b) }
				for j, y := range ys {
					if j < k && less(got, y) || j > k && less(y, got) {
						t.Fatalf("%s budget %d k %d: %v at %d is on the wrong side", name, budget, k, y, j)
					}
				}
				ys2 := append([]float64(nil), ys...)
				sort.Float64s(ys2)
				for j := range sorted {
					if !(ys2[j] == sorted[j] || math.IsNaN(ys2[j]) && math.IsNaN(sorted[j])) {
						t.Fatalf("%s budget %d k %d: selection changed the multiset", name, budget, k)
					}
				}
			}
		}
		if got := kth(append([]float64(nil), xs...), len(xs)/2); !(got == sorted[len(xs)/2] || math.IsNaN(got)) {
			t.Fatalf("%s: median %v, sorted %v", name, got, sorted[len(xs)/2])
		}
	}
}
