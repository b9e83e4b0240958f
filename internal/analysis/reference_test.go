package analysis

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"ensembleio/internal/ipmio"
	"ensembleio/internal/sim"
)

// The reference implementations below are the straightforward forms of
// Phases, phaseGroups, phaseStats, rankMedians and RankActivities: a
// linear first-match phase scan appending a copy of each event, full
// sorts read at the wanted rank, and per-rank maps. The package
// versions index phases by binary search, return views of an in-order
// trace, select order statistics instead of sorting, keep per-rank
// state in dense slices and radix-sort the sweep's boundaries; the
// tests hold them to the references bit for bit.

func refPhases(events []ipmio.Event, marks []ipmio.PhaseMark, end sim.Time) []Phase {
	var phases []Phase
	if len(marks) == 0 {
		return []Phase{{Name: "all", StartT: 0, EndT: end, Events: events}}
	}
	pre := false
	for _, ev := range events {
		if ev.Start < marks[0].T {
			pre = true
		}
	}
	if pre {
		phases = append(phases, Phase{Name: "pre", StartT: 0, EndT: marks[0].T})
	}
	for i, m := range marks {
		e := end
		if i+1 < len(marks) {
			e = marks[i+1].T
		}
		phases = append(phases, Phase{Name: m.Name, StartT: m.T, EndT: e})
	}
	for _, ev := range events {
		for i := range phases {
			if ev.Start >= phases[i].StartT && (ev.Start < phases[i].EndT || i == len(phases)-1) {
				phases[i].Events = append(phases[i].Events, ev)
				break
			}
		}
	}
	return phases
}

// refGroup is one phase's sorted durations.
type refGroup struct {
	name string
	durs []float64
}

func refPhaseDurations(events []ipmio.Event, marks []ipmio.PhaseMark, end sim.Time, keep func(ipmio.Event) bool) []refGroup {
	var out []refGroup
	for _, ph := range refPhases(events, marks, end) {
		var ds []float64
		for _, e := range ph.Events {
			if keep(e) {
				ds = append(ds, float64(e.Dur))
			}
		}
		sort.Float64s(ds)
		out = append(out, refGroup{ph.Name, ds})
	}
	return out
}

// sizedWrite is the write-only subset of dataOp.
func sizedWrite(smallIO int64) func(ipmio.Event) bool {
	return func(e ipmio.Event) bool { return e.Op == ipmio.OpWrite && e.Bytes > smallIO }
}

// refPhaseStats reads each phaseStat off sorted copies, as the
// detectors did before they selected.
func refPhaseStats(events []ipmio.Event, marks []ipmio.PhaseMark, end sim.Time, smallIO int64) []phaseStat {
	all := refPhaseDurations(events, marks, end, dataOp(smallIO))
	writes := refPhaseDurations(events, marks, end, sizedWrite(smallIO))
	out := make([]phaseStat, len(all))
	for k, g := range all {
		st := phaseStat{name: g.name}
		if d := g.durs; len(d) > 0 {
			st.n, st.med = len(d), d[len(d)/2]
			tail := d[sort.SearchFloat64s(d, 3*st.med):]
			st.tail = len(tail)
			if len(tail) > 0 {
				st.tailMed = tail[len(tail)/2]
			}
		}
		if w := writes[k].durs; len(w) > 0 {
			st.writes, st.writeMed, st.writeP25 = len(w), w[len(w)/2], quantileSorted(w, 0.25)
		}
		out[k] = st
	}
	return out
}

func refRankMedians(events []ipmio.Event, smallIO int64) (ranks []int, med map[int]float64) {
	byRank := make(map[int][]float64)
	keep := dataOp(smallIO)
	for _, e := range events {
		if keep(e) {
			byRank[e.Rank] = append(byRank[e.Rank], float64(e.Dur))
		}
	}
	med = make(map[int]float64, len(byRank))
	for r, ds := range byRank {
		ranks = append(ranks, r)
		sort.Float64s(ds)
		med[r] = ds[len(ds)/2]
	}
	sort.Ints(ranks)
	return ranks, med
}

// refRankActivities applies all boundaries at one instant as a group
// and takes each rank's transition from its depth before and after
// the group.
func refRankActivities(events []ipmio.Event) []RankActivity {
	if len(events) == 0 {
		return nil
	}
	type boundary struct {
		t     sim.Time
		rank  int
		delta int
	}
	var bounds []boundary
	counts := make(map[int]int)
	for _, e := range events {
		counts[e.Rank]++
		if e.Dur <= 0 {
			continue
		}
		bounds = append(bounds, boundary{t: e.Start, rank: e.Rank, delta: +1})
		bounds = append(bounds, boundary{t: e.Start + e.Dur, rank: e.Rank, delta: -1})
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i].t < bounds[j].t })
	depth := make(map[int]int)
	since := make(map[int]sim.Time)
	active := make(map[int]struct{})
	busy := make(map[int]sim.Duration)
	exclusive := make(map[int]sim.Duration)
	soloRank, solo := 0, false
	var soloSince sim.Time
	for i := 0; i < len(bounds); {
		t := bounds[i].t
		was := make(map[int]int) // depth before the instant, per rank it touches
		//lint:allow(floateq) grouping boundaries at the bit-identical instant is intended
		for ; i < len(bounds) && bounds[i].t == t; i++ {
			b := bounds[i]
			if _, ok := was[b.rank]; !ok {
				was[b.rank] = depth[b.rank]
			}
			depth[b.rank] += b.delta
		}
		for _, r := range sortedRanks(was) {
			if was[r] == 0 && depth[r] > 0 {
				since[r] = t
				active[r] = struct{}{}
			}
			if was[r] > 0 && depth[r] == 0 {
				busy[r] += t - since[r]
				delete(active, r)
			}
		}
		if solo && (len(active) != 1 || depth[soloRank] == 0) {
			exclusive[soloRank] += t - soloSince
			solo = false
		}
		if !solo && len(active) == 1 {
			for r := range active {
				soloRank = r //lint:allow(maporder) active holds exactly one rank here
			}
			solo, soloSince = true, t
		}
	}
	var out []RankActivity
	for _, rank := range sortedRanks(counts) {
		out = append(out, RankActivity{Rank: rank, Events: counts[rank], Busy: busy[rank], Exclusive: exclusive[rank]})
	}
	return out
}

// randomTrace draws a trace with duplicate timestamps, zero-length
// events, and events before the first mark, plus marks with duplicate
// instants (zero-length phases). Every fourth trace has no marks, and
// every fifth spreads its ranks sparsely (huge and negative ranks) so
// the map-numbered rank path runs too. Traces come in three orders:
// as drawn, by start (phases in order, so Phases returns views), and
// by end (completion order, as collectors record, so RankActivities
// finds its ends sorted).
func randomTrace(rng *sim.RNG, i int) ([]ipmio.Event, []ipmio.PhaseMark, sim.Time) {
	n := rng.Intn(400)
	ranks := 1 + rng.Intn(40)
	sparse := i%5 == 4
	ops := []ipmio.Op{ipmio.OpRead, ipmio.OpWrite, ipmio.OpWrite, ipmio.OpOpen, ipmio.OpClose}
	// Starts come from a coarse grid (many exact ties) or anywhere.
	at := func() sim.Time {
		if rng.Intn(2) == 0 {
			return sim.Time(rng.Intn(40)) * 0.25
		}
		return sim.Time(rng.Uniform(0, 10))
	}
	events := make([]ipmio.Event, n)
	for k := range events {
		e := ipmio.Event{Rank: rng.Intn(ranks), Op: ops[rng.Intn(len(ops))], Start: at()}
		if sparse {
			e.Rank = []int{0, 3, 1 << 40, 1 << 50, 12, -5}[rng.Intn(6)]
		}
		if rng.Intn(5) > 0 {
			e.Dur = sim.Duration(rng.Exp(0.5))
		}
		if rng.Intn(4) == 0 {
			e.Dur = sim.Duration(rng.Intn(4)) * 0.25 // ends on the grid, or zero
		}
		e.Bytes = []int64{0, 4 << 10, 64 << 10, 1e6, 16e6}[rng.Intn(5)]
		events[k] = e
	}
	switch i % 3 {
	case 1:
		sort.SliceStable(events, func(a, b int) bool { return events[a].Start < events[b].Start })
	case 2:
		sort.SliceStable(events, func(a, b int) bool {
			return events[a].Start+events[a].Dur < events[b].Start+events[b].Dur
		})
	}
	var marks []ipmio.PhaseMark
	if i%4 != 3 {
		nm := 1 + rng.Intn(8)
		for k := 0; k < nm; k++ {
			marks = append(marks, ipmio.PhaseMark{Name: string(rune('a' + k)), T: at()})
		}
		sort.SliceStable(marks, func(a, b int) bool { return marks[a].T < marks[b].T })
	}
	return events, marks, 12
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func samePhases(t *testing.T, got, want []Phase) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d phases, reference %d", len(got), len(want))
	}
	for k := range want {
		g, w := got[k], want[k]
		if g.Name != w.Name || !sameFloat(float64(g.StartT), float64(w.StartT)) || !sameFloat(float64(g.EndT), float64(w.EndT)) {
			t.Fatalf("phase %d is %q [%v,%v), reference %q [%v,%v)", k, g.Name, g.StartT, g.EndT, w.Name, w.StartT, w.EndT)
		}
		if len(g.Events) != len(w.Events) || (g.Events == nil) != (w.Events == nil) {
			t.Fatalf("phase %d has %d events (nil %v), reference %d (nil %v)",
				k, len(g.Events), g.Events == nil, len(w.Events), w.Events == nil)
		}
		if cap(g.Events) != len(g.Events) {
			t.Fatalf("phase %d has capacity %d past its %d events", k, cap(g.Events), len(g.Events))
		}
		for j := range w.Events {
			if g.Events[j] != w.Events[j] {
				t.Fatalf("phase %d event %d is %+v, reference %+v", k, j, g.Events[j], w.Events[j])
			}
		}
	}
}

// sameMultiset fails unless got and want hold the same durations bit
// for bit, compared in a total order that puts -0 before +0.
func sameMultiset(t *testing.T, what string, got, want []float64) {
	t.Helper()
	total := func(xs []float64) []float64 {
		xs = append([]float64(nil), xs...)
		slices.SortFunc(xs, func(a, b float64) int { return cmp.Compare(orderBits(a), orderBits(b)) })
		return xs
	}
	got, want = total(got), total(want)
	if len(got) != len(want) {
		t.Fatalf("%s: %d durations, reference %d", what, len(got), len(want))
	}
	for j := range want {
		if !sameFloat(got[j], want[j]) {
			t.Fatalf("%s: sorted duration %d is %v, reference %v", what, j, got[j], want[j])
		}
	}
}

// orderBits maps a float to an integer in IEEE total order.
func orderBits(x float64) int64 {
	b := int64(math.Float64bits(x))
	return b ^ int64(uint64(b>>63)>>1)
}

// sameStat compares order statistics bit for bit, except that -0 and
// +0 match: selection and sorting may each pick either one.
func sameStat(a, b float64) bool { return sameFloat(a, b) || a == 0 && b == 0 }

// checkReferences holds every analysis with a reference to it on one
// trace.
func checkReferences(t *testing.T, events []ipmio.Event, marks []ipmio.PhaseMark, end sim.Time) {
	t.Helper()
	const smallIO = 64 << 10
	samePhases(t, Phases(events, marks, end), refPhases(events, marks, end))

	phases, idx := phaseIndex(events, marks, end)
	vals, off := phaseGroups(events, phases, idx, smallIO)
	all := refPhaseDurations(events, marks, end, dataOp(smallIO))
	writes := refPhaseDurations(events, marks, end, sizedWrite(smallIO))
	if len(phases) != len(all) {
		t.Fatalf("%d phase groups, reference %d", len(phases), len(all))
	}
	for k := range all {
		sameMultiset(t, "phase "+all[k].name, vals[off[2*k]:off[2*k+2]], all[k].durs)
		sameMultiset(t, "phase "+all[k].name+" writes", vals[off[2*k]:off[2*k+1]], writes[k].durs)
	}
	stats, want := phaseStats(phases, vals, off), refPhaseStats(events, marks, end, smallIO)
	for k, w := range want {
		g := stats[k]
		if g.name != w.name || g.n != w.n || g.tail != w.tail || g.writes != w.writes ||
			!sameStat(g.med, w.med) || !sameStat(g.tailMed, w.tailMed) ||
			!sameStat(g.writeMed, w.writeMed) || !sameStat(g.writeP25, w.writeP25) {
			t.Fatalf("phase %d statistics %+v, reference %+v", k, g, w)
		}
	}

	ranks, meds := rankMedians(events, smallIO)
	wantRanks, wantMed := refRankMedians(events, smallIO)
	if len(ranks) != len(wantRanks) {
		t.Fatalf("%d ranks with medians, reference %d", len(ranks), len(wantRanks))
	}
	for k, r := range wantRanks {
		if ranks[k] != r || !sameStat(meds[k], wantMed[r]) {
			t.Fatalf("rank %d median %v, reference rank %d median %v", ranks[k], meds[k], r, wantMed[r])
		}
	}

	sameActivities(t, RankActivities(events), refRankActivities(events))
}

func sameActivities(t *testing.T, got, want []RankActivity) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d rank activities, reference %d", len(got), len(want))
	}
	for k, w := range want {
		g := got[k]
		if g.Rank != w.Rank || g.Events != w.Events ||
			!sameFloat(float64(g.Busy), float64(w.Busy)) || !sameFloat(float64(g.Exclusive), float64(w.Exclusive)) {
			t.Fatalf("activity %+v, reference %+v", g, w)
		}
	}
}

func TestAnalysisMatchesReferences(t *testing.T) {
	rng := sim.NewRNG(2010)
	for i := 0; i < 300; i++ {
		events, marks, end := randomTrace(rng, i)
		t.Run(fmt.Sprint(i), func(t *testing.T) { checkReferences(t, events, marks, end) })
	}
}

// TestRankActivitiesPermutationInvariant: Busy and Exclusive do not
// depend on the order the trace lists its events in, bit for bit.
func TestRankActivitiesPermutationInvariant(t *testing.T) {
	rng := sim.NewRNG(2010)
	shuf := sim.NewRNG(7)
	for i := 0; i < 300; i++ {
		events, _, _ := randomTrace(rng, i)
		want := RankActivities(events)
		for s := 0; s < 5; s++ {
			shuffled := append([]ipmio.Event(nil), events...)
			for k := len(shuffled) - 1; k > 0; k-- {
				j := shuf.Intn(k + 1)
				shuffled[k], shuffled[j] = shuffled[j], shuffled[k]
			}
			sameActivities(t, RankActivities(shuffled), want)
		}
	}
}

// TestPhasesViewsAreCapped: an in-order trace's phases are views of
// it, and appending to one copies rather than overwriting the next.
func TestPhasesViewsAreCapped(t *testing.T) {
	events := []ipmio.Event{{Start: 0.5}, {Start: 1}, {Start: 1.5}, {Start: 2.5}, {Start: 3}}
	marks := []ipmio.PhaseMark{{Name: "a", T: 1}, {Name: "b", T: 2}}
	ph := Phases(events, marks, 4)
	if len(ph) != 3 || &ph[1].Events[0] != &events[1] || &ph[2].Events[0] != &events[3] {
		t.Fatalf("phases %+v are not views of the in-order trace", ph)
	}
	grown := append(ph[1].Events, ipmio.Event{Start: 99})
	if events[3].Start != 2.5 || ph[2].Events[0].Start != 2.5 || len(grown) != 3 {
		t.Fatalf("appending to phase b overwrote phase c: trace %+v", events)
	}
}

// TestPhasesKeepsOutOfOrderEvents pins the "pre" phase decision on the
// earliest start, not on the first recorded event: collectors record
// in completion order, so an early-starting event can come later.
func TestPhasesKeepsOutOfOrderEvents(t *testing.T) {
	events := []ipmio.Event{{Start: 2}, {Start: 0.5}, {Start: 3}, {Start: 0}}
	marks := []ipmio.PhaseMark{{Name: "a", T: 1}, {Name: "b", T: 2.5}}
	ph := Phases(events, marks, 5)
	total := 0
	for _, p := range ph {
		total += len(p.Events)
	}
	if total != len(events) {
		t.Fatalf("phases hold %d of %d events: %+v", total, len(events), ph)
	}
	if ph[0].Name != "pre" || len(ph[0].Events) != 2 || ph[0].Events[0].Start != 0.5 || ph[0].Events[1].Start != 0 {
		t.Fatalf("pre phase %+v, want the two early events in trace order", ph[0])
	}
}

// fuzzTrace builds a trace of at most 256 events from fuzz bytes. The
// first byte sets the number of marks (up to 7, on a quarter-second
// grid, so instants repeat), the next bytes are their instants, and
// each following 4 bytes is one event: its rank (dense, or sparse
// and negative), op and size class, start (on the grid or off it) and
// duration (zero, negative, on the grid or off it).
func fuzzTrace(data []byte) ([]ipmio.Event, []ipmio.PhaseMark, sim.Time) {
	if len(data) == 0 {
		return nil, nil, 0
	}
	nm := int(data[0] % 8)
	data = data[1:]
	var marks []ipmio.PhaseMark
	for k := 0; k < nm && k < len(data); k++ {
		marks = append(marks, ipmio.PhaseMark{Name: string(rune('a' + k)), T: sim.Time(data[k]%64) * 0.25})
	}
	sort.SliceStable(marks, func(a, b int) bool { return marks[a].T < marks[b].T })
	data = data[min(nm, len(data)):]
	ops := []ipmio.Op{ipmio.OpRead, ipmio.OpWrite, ipmio.OpWrite, ipmio.OpOpen, ipmio.OpClose}
	sizes := []int64{0, 4 << 10, 64 << 10, 1e6, 16e6}
	var events []ipmio.Event
	for len(data) >= 4 && len(events) < 256 {
		r, o, s, d := data[0], data[1], data[2], data[3]
		data = data[4:]
		e := ipmio.Event{Rank: int(r % 16), Op: ops[o%5], Bytes: sizes[o/5%5]}
		if r >= 200 {
			e.Rank = []int{-3, -1 << 40, 1 << 40, 1 << 50, 7}[r%5]
		}
		e.Start = sim.Time(s%128) * 0.25
		if s >= 128 {
			e.Start = sim.Time(s) / 7
		}
		switch q := sim.Duration(d / 4); d % 4 {
		case 1:
			e.Dur = q * 0.25
		case 2:
			e.Dur = q / 3
		case 3:
			e.Dur = -q * 0.25
		}
		events = append(events, e)
	}
	return events, marks, 70
}

// FuzzAnalysisMatchesReferences holds Phases, the phase groups and
// their statistics, rank medians and RankActivities to the references
// on fuzzed traces.
func FuzzAnalysisMatchesReferences(f *testing.F) {
	f.Add([]byte{3, 4, 8, 8, 0, 1, 4, 9, 1, 6, 4, 9, 2, 1, 12, 5, 0, 1, 0, 0})
	f.Add([]byte{0, 1, 1, 20, 13, 1, 1, 21, 9, 201, 11, 130, 6, 202, 6, 130, 7})
	f.Add([]byte{7, 0, 0, 1, 2, 3, 60, 60, 5, 8, 0, 250, 5, 8, 0, 250, 204, 9, 8, 14})
	f.Fuzz(func(t *testing.T, data []byte) {
		events, marks, end := fuzzTrace(data)
		checkReferences(t, events, marks, end)
	})
}
