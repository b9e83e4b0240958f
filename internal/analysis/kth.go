package analysis

import (
	"math"
	"math/bits"
	"sort"
)

// kth returns the k-th smallest element of xs (0-based) in
// sort.Float64s order, reordering xs so that xs[:k] holds no element
// above it and xs[k+1:] none below. The result is one of the input
// elements, so it is bit-identical to sorting xs and reading xs[k]
// (up to which of -0 and +0 it picks, as two sorts may). It runs in
// expected linear time; see selectK.
func kth(xs []float64, k int) float64 {
	return selectK(xs, k, 2*bits.Len(uint(len(xs))))
}

// selectK is introselect: quickselect on a median-of-three pivot,
// which falls back to sorting the window that still holds position k
// once budget partition rounds are spent, so adversarial inputs cost
// O(n log n) at worst. Input holding a NaN, which the partition's
// comparisons cannot place, is sorted outright.
func selectK(xs []float64, k, budget int) float64 {
	for _, x := range xs {
		if math.IsNaN(x) {
			sort.Float64s(xs)
			return xs[k]
		}
	}
	lo, hi := 0, len(xs)-1 // the window [lo, hi] holds position k
	for hi-lo > 12 {
		if budget == 0 {
			sort.Float64s(xs[lo : hi+1])
			return xs[k]
		}
		budget--
		// Median of three at lo, mid and hi: afterwards xs[lo] <= p <=
		// xs[hi], which bounds the scans below.
		mid := lo + (hi-lo)/2
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
			if xs[mid] < xs[lo] {
				xs[mid], xs[lo] = xs[lo], xs[mid]
			}
		}
		p := xs[mid]
		// Hoare partition: on exit xs[lo:j+1] <= p, xs[i:hi+1] >= p,
		// and everything between equals p.
		i, j := lo, hi
		for i <= j {
			for xs[i] < p {
				i++
			}
			for p < xs[j] {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return xs[k]
		}
	}
	for i := lo + 1; i <= hi; i++ { // insertion sort of the window
		for j := i; j > lo && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
	return xs[k]
}
