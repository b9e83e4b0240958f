package analysis

import (
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
		byRank[e.Rank] = append(byRank[e.Rank], e)
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
		if n == 0 || e.Rank < lo {
			lo = e.Rank
		}
		if n == 0 || e.Rank > hi {
			hi = e.Rank
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
				table[e.Rank-lo] = 1
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
				slot[i] = table[e.Rank-lo] - 1
			}
		}
		return slot, ranks
	}
	m := make(map[int]int32)
	for i, e := range events {
		if slot[i] >= 0 {
			m[e.Rank] = 0
		}
	}
	ranks = sortedRanks(m)
	for j, r := range ranks {
		m[r] = int32(j)
	}
	for i, e := range events {
		if slot[i] >= 0 {
			slot[i] = m[e.Rank]
		}
	}
	return slot, ranks
}

// groupBy gathers val(i) for every entry i with idx[i] >= 0 that keep
// accepts (nil keeps all) into one exactly sized array, grouped by
// idx and in entry order within a group: group k is
// vals[off[k]:off[k+1]].
func groupBy[T any](idx []int32, groups int, keep func(i int) bool, val func(i int) T) (vals []T, off []int) {
	off = make([]int, groups+1)
	for i, k := range idx {
		if k >= 0 && (keep == nil || keep(i)) {
			off[k+1]++
		}
	}
	for k := 0; k < groups; k++ {
		off[k+1] += off[k]
	}
	vals = make([]T, off[groups])
	next := append([]int(nil), off[:groups]...)
	for i, k := range idx {
		if k >= 0 && (keep == nil || keep(i)) {
			vals[next[k]] = val(i)
			next[k]++
		}
	}
	return vals, off
}

// RankActivities computes per-rank busy and exclusive-busy time with a
// single boundary sweep over all event intervals.
func RankActivities(events []ipmio.Event) []RankActivity {
	if len(events) == 0 {
		return nil
	}
	type boundary struct {
		t     sim.Time
		slot  int32
		delta int32
	}
	slot, ranks := rankSlots(events, nil)
	counts := make([]int, len(ranks)) // events per rank
	nb := 0
	for i, e := range events {
		counts[slot[i]]++
		if !(e.Dur <= 0) { // the skip below, NaN included
			nb += 2
		}
	}
	bounds := make([]boundary, 0, nb)
	for i, e := range events {
		if e.Dur <= 0 {
			continue
		}
		bounds = append(bounds,
			boundary{t: e.Start, slot: slot[i], delta: +1},
			boundary{t: e.Start + e.Dur, slot: slot[i], delta: -1})
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i].t < bounds[j].t })

	depth := make([]int32, len(ranks)) // per-rank overlap depth
	since := make([]sim.Time, len(ranks))
	busy := make([]sim.Duration, len(ranks))
	exclusive := make([]sim.Duration, len(ranks))
	// The busy ranks as a count and a slot sum: while exactly one rank
	// is busy, the sum is its slot.
	nActive, activeSum := 0, 0
	solo := -1
	var soloSince sim.Time
	for i := 0; i < len(bounds); {
		t := bounds[i].t
		// Apply all boundaries at this instant; account per-rank busy
		// time and job-wide exclusive time only at transitions.
		//lint:allow(floateq) grouping boundaries at the bit-identical instant is intended
		for i < len(bounds) && bounds[i].t == t {
			b := bounds[i]
			was := depth[b.slot]
			now := was + b.delta
			depth[b.slot] = now
			if was == 0 && now > 0 {
				since[b.slot] = t
				nActive++
				activeSum += int(b.slot)
			}
			if was > 0 && now == 0 {
				busy[b.slot] += t - since[b.slot]
				nActive--
				activeSum -= int(b.slot)
			}
			i++
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
