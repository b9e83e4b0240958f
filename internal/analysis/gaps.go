package analysis

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"ensembleio/internal/ipmio"
	"ensembleio/internal/sim"
)

// Gap analysis: the white space of a trace diagram, quantified. In
// Figure 6(g) the decisive observation is that "the total run time was
// dominated by the serialized metadata operations on task 0" — i.e.
// long periods where a single rank is busy while every other rank
// idles. This file computes per-rank activity, idle gaps, and the
// exclusive-activity attribution that names such a serializer.

// RankActivity summarizes one rank's share of the run.
type RankActivity struct {
	Rank   int
	Events int
	// Busy is the union length of the rank's event intervals.
	Busy sim.Duration
	// Exclusive is the length of time this rank was the ONLY busy
	// rank in the whole job.
	Exclusive sim.Duration
}

// Gap is one idle interval of a rank between consecutive events.
type Gap struct {
	Rank  int
	Start sim.Time
	End   sim.Time
}

// Dur returns the gap length.
func (g Gap) Dur() sim.Duration { return g.End - g.Start }

// Gaps returns each rank's idle intervals longer than minGap, between
// its first and last event.
func Gaps(events []ipmio.Event, minGap sim.Duration) []Gap {
	byRank := make(map[int][]ipmio.Event)
	for _, e := range events {
		r := int(e.Rank)
		byRank[r] = append(byRank[r], e)
	}
	var out []Gap
	for _, rank := range sortedRanks(byRank) {
		evs := byRank[rank]
		sort.Slice(evs, func(i, j int) bool { return evs[i].Start < evs[j].Start })
		var lastEnd sim.Time
		first := true
		for _, e := range evs {
			if !first && e.Start-lastEnd > minGap {
				out = append(out, Gap{Rank: rank, Start: lastEnd, End: e.Start})
			}
			if end := e.Start + e.Dur; first || end > lastEnd {
				lastEnd = end
			}
			first = false
		}
	}
	sort.Slice(out, func(i, j int) bool {
		//lint:allow(floateq) sort comparators need exact ordering for determinism
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Rank < out[j].Rank
	})
	return out
}

// sortedRanks returns the map's keys in increasing order, so
// iteration over per-rank aggregates is deterministic.
func sortedRanks[V any](m map[int]V) []int {
	ranks := make([]int, 0, len(m))
	for r := range m {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	return ranks
}

// rankSlots numbers the distinct ranks of the events keep accepts
// (nil keeps all) densely in ascending rank order: ranks[s] is the
// rank in slot s and slot[i] is event i's slot, or -1 when keep
// rejects it. Per-rank state can then live in slices indexed by slot.
// A rank range up to a few times the event count, as every simulated
// run has, is numbered through a table; a sparse one, as a decoded
// trace may carry, through a map.
func rankSlots(events []ipmio.Event, keep func(ipmio.Event) bool) (slot []int32, ranks []int) {
	slot = make([]int32, len(events))
	lo, hi, n := 0, 0, 0
	for i, e := range events {
		if keep != nil && !keep(e) {
			slot[i] = -1
			continue
		}
		r := int(e.Rank)
		if n == 0 || r < lo {
			lo = r
		}
		if n == 0 || r > hi {
			hi = r
		}
		n++
	}
	if n == 0 {
		return slot, nil
	}
	if span := uint64(hi) - uint64(lo); span < uint64(4*n+64) {
		table := make([]int32, span+1) // slot+1 of rank lo+j, 0 = absent
		for i, e := range events {
			if slot[i] >= 0 {
				table[int(e.Rank)-lo] = 1
			}
		}
		for j, present := range table {
			if present != 0 {
				ranks = append(ranks, lo+j)
				table[j] = int32(len(ranks))
			}
		}
		for i, e := range events {
			if slot[i] >= 0 {
				slot[i] = table[int(e.Rank)-lo] - 1
			}
		}
		return slot, ranks
	}
	m := make(map[int]int32)
	for i, e := range events {
		if slot[i] >= 0 {
			m[int(e.Rank)] = 0
		}
	}
	ranks = sortedRanks(m)
	for j, r := range ranks {
		m[r] = int32(j)
	}
	for i, e := range events {
		if slot[i] >= 0 {
			slot[i] = m[int(e.Rank)]
		}
	}
	return slot, ranks
}

// groupBy gathers val(i) for each of n entries into one exactly sized
// array, grouped by key(i) in [0, groups) and in entry order within a
// group; entries with a negative key are left out. Group g is
// vals[off[g]:off[g+1]].
func groupBy[T any](n, groups int, key func(i int) int32, val func(i int) T) (vals []T, off []int) {
	off = make([]int, groups+1)
	for i := 0; i < n; i++ {
		if g := key(i); g >= 0 {
			off[g+1]++
		}
	}
	for g := 0; g < groups; g++ {
		off[g+1] += off[g]
	}
	vals = make([]T, off[groups])
	next := append([]int(nil), off[:groups]...)
	for i := 0; i < n; i++ {
		if g := key(i); g >= 0 {
			vals[next[g]] = val(i)
			next[g]++
		}
	}
	return vals, off
}

// RankActivities computes per-rank busy and exclusive-busy time with a
// single boundary sweep over all event intervals. All boundaries at
// one instant apply as a group: a rank's busy time opens or closes
// only when the group changes its depth from or to zero, so touching
// intervals count as one piece whatever order the trace lists them in,
// and the result does not depend on the input order.
//
// The interval starts are radix-sorted by timeKey. The ends come in
// trace order, which collectors record by completion, so they are
// usually sorted already; otherwise they are sorted in place. The
// sweep merges the two, starts first at a shared instant: a rank
// busy before and after the instant then never closes and reopens.
func RankActivities(events []ipmio.Event) []RankActivity {
	if len(events) == 0 {
		return nil
	}
	slot, ranks := rankSlots(events, nil)
	counts := make([]int, len(ranks)) // events per rank
	n := 0
	for i, e := range events {
		counts[slot[i]]++
		if !(e.Dur <= 0) { // the skip below, NaN included
			n++
		}
	}
	// One array: the starts, then the ends, which serve as the starts'
	// radix scratch before they are filled.
	bounds := make([]boundary, 2*n)
	starts, ends := bounds[:n], bounds[n:]
	j := 0
	for i, e := range events {
		if e.Dur <= 0 {
			continue
		}
		starts[j] = boundary{timeKey(e.Start), slot[i]}
		j++
	}
	radixSort(starts, ends)
	j = 0
	sorted := true
	for i, e := range events {
		if e.Dur <= 0 {
			continue
		}
		ends[j] = boundary{timeKey(e.Start + e.Dur), slot[i]}
		if j > 0 && ends[j].key < ends[j-1].key {
			sorted = false
		}
		j++
	}
	if !sorted {
		slices.SortFunc(ends, func(a, b boundary) int { return cmp.Compare(a.key, b.key) })
	}

	depth := make([]int32, len(ranks)) // per-rank overlap depth
	since := make([]sim.Time, len(ranks))
	busy := make([]sim.Duration, len(ranks))
	exclusive := make([]sim.Duration, len(ranks))
	// The busy ranks as a count and a slot sum: while exactly one rank
	// is busy, the sum is its slot.
	nActive, activeSum := 0, 0
	solo := -1
	var soloSince sim.Time
	for i, j := 0, 0; i < n || j < n; {
		k := uint64(math.MaxUint64)
		if j < n {
			k = ends[j].key
		}
		if i < n && starts[i].key < k {
			k = starts[i].key
		}
		t := keyTime(k)
		// Account per-rank busy time only at transitions.
		for ; i < n && starts[i].key == k; i++ {
			s := starts[i].slot
			if depth[s] == 0 {
				since[s] = t
				nActive++
				activeSum += int(s)
			}
			depth[s]++
		}
		for ; j < n && ends[j].key == k; j++ {
			s := ends[j].slot
			if depth[s]--; depth[s] == 0 {
				busy[s] += t - since[s]
				nActive--
				activeSum -= int(s)
			}
		}
		// Exclusive tracking: close any ended solo period, open a new
		// one when exactly one rank remains busy.
		if solo >= 0 && (nActive != 1 || depth[solo] == 0) {
			exclusive[solo] += t - soloSince
			solo = -1
		}
		if solo < 0 && nActive == 1 {
			solo = activeSum
			soloSince = t
		}
	}

	out := make([]RankActivity, len(ranks))
	for s, rank := range ranks {
		out[s] = RankActivity{
			Rank:      rank,
			Events:    counts[s],
			Busy:      busy[s],
			Exclusive: exclusive[s],
		}
	}
	return out
}

// boundary is one end of an event interval in the RankActivities
// sweep: its instant as a timeKey and the rank's slot.
type boundary struct {
	key  uint64
	slot int32
}

// timeKey maps a time to a key whose unsigned order is the times'
// order: the sign bit is flipped on non-negative times and every bit
// on negative ones. -0 maps to +0's key, so keys are equal exactly
// when the times compare equal (NaN aside, which sorts after +Inf or
// before -Inf by its sign and groups only with the same bits).
func timeKey(t sim.Time) uint64 {
	b := math.Float64bits(float64(t))
	if b == 1<<63 { // -0
		b = 0
	}
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// keyTime inverts timeKey.
func keyTime(k uint64) sim.Time {
	if k>>63 != 0 {
		return sim.Time(math.Float64frombits(k &^ (1 << 63)))
	}
	return sim.Time(math.Float64frombits(^k))
}

// radixSort sorts bs by key with a least-significant-digit radix sort
// over 11-bit digits, using scratch (len(scratch) >= len(bs)) for the
// scatter passes. A digit that every key shares cannot reorder
// anything and is skipped.
func radixSort(bs, scratch []boundary) {
	const bits, digits = 11, 6
	if len(bs) < 2 {
		return
	}
	var counts [digits][1 << bits]uint32
	var diff uint64
	first := bs[0].key
	for _, b := range bs {
		diff |= b.key ^ first
		k := b.key
		for d := 0; d < digits; d++ {
			counts[d][k&(1<<bits-1)]++
			k >>= bits
		}
	}
	src, dst := bs, scratch[:len(bs)]
	for d := 0; d < digits; d++ {
		shift := uint(bits * d)
		if (diff>>shift)&(1<<bits-1) == 0 {
			continue
		}
		var sum uint32
		next := &counts[d]
		for v, c := range next {
			next[v] = sum
			sum += c
		}
		for _, b := range src {
			v := (b.key >> shift) & (1<<bits - 1)
			dst[next[v]] = b
			next[v]++
		}
		src, dst = dst, src
	}
	if &src[0] != &bs[0] {
		copy(bs, src)
	}
}

// Serializer names the rank whose exclusive activity dominates the
// run: the single-rank bottleneck of Figure 6(g). It returns the rank,
// the fraction of the event span it held exclusively, and ok=true when
// that fraction exceeds threshold (e.g. 0.25).
func Serializer(events []ipmio.Event, threshold float64) (rank int, frac float64, ok bool) {
	acts := RankActivities(events)
	if len(acts) < 2 {
		return 0, 0, false
	}
	var minStart, maxEnd sim.Time
	first := true
	for _, e := range events {
		if first || e.Start < minStart {
			minStart = e.Start
		}
		if end := e.Start + e.Dur; first || end > maxEnd {
			maxEnd = end
		}
		first = false
	}
	span := maxEnd - minStart
	if span <= 0 {
		return 0, 0, false
	}
	best := acts[0]
	for _, a := range acts[1:] {
		if a.Exclusive > best.Exclusive {
			best = a
		}
	}
	frac = float64(best.Exclusive / span)
	return best.Rank, frac, frac >= threshold
}
