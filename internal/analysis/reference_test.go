package analysis

import (
	"math"
	"sort"
	"testing"

	"ensembleio/internal/ipmio"
	"ensembleio/internal/sim"
)

// The reference implementations below are the straightforward forms of
// Phases, phaseDurations, rankMedians and RankActivities: a linear
// first-match phase scan appending a copy of each event, and per-rank
// maps. The package versions index phases by binary search, fill
// exactly sized arrays and keep per-rank state in dense slices; the
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

func refPhaseDurations(events []ipmio.Event, marks []ipmio.PhaseMark, end sim.Time, keep func(ipmio.Event) bool) []phaseDurs {
	var out []phaseDurs
	for _, ph := range refPhases(events, marks, end) {
		var ds []float64
		for _, e := range ph.Events {
			if keep(e) {
				ds = append(ds, float64(e.Dur))
			}
		}
		sort.Float64s(ds)
		out = append(out, phaseDurs{ph.Name, ds})
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
	soloRank := -1
	var soloSince sim.Time
	for i := 0; i < len(bounds); {
		t := bounds[i].t
		//lint:allow(floateq) grouping boundaries at the bit-identical instant is intended
		for i < len(bounds) && bounds[i].t == t {
			b := bounds[i]
			was := depth[b.rank]
			depth[b.rank] = was + b.delta
			now := depth[b.rank]
			if was == 0 && now > 0 {
				since[b.rank] = t
				active[b.rank] = struct{}{}
			}
			if was > 0 && now == 0 {
				busy[b.rank] += t - since[b.rank]
				delete(active, b.rank)
			}
			i++
		}
		if soloRank >= 0 && (len(active) != 1 || depth[soloRank] == 0) {
			exclusive[soloRank] += t - soloSince
			soloRank = -1
		}
		if soloRank < 0 && len(active) == 1 {
			for r := range active {
				soloRank = r //lint:allow(maporder) active holds exactly one rank here
			}
			soloSince = t
		}
	}
	var out []RankActivity
	for _, rank := range sortedRanks(counts) {
		out = append(out, RankActivity{Rank: rank, Events: counts[rank], Busy: busy[rank], Exclusive: exclusive[rank]})
	}
	return out
}

// randomTrace draws an out-of-order trace with duplicate timestamps,
// zero-length events, and events before the first mark, plus marks
// with duplicate instants (zero-length phases). Every fourth trace has
// no marks, and every fifth spreads its ranks sparsely (huge ranks)
// so the map-numbered rank path runs too. Ranks stay non-negative: the
// reference's solo-rank sentinel is -1, so it never credits a negative
// rank with exclusive time (TestRankActivitiesNegativeRanks).
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
			e.Rank = []int{0, 3, 1 << 40, 1 << 50, 12}[rng.Intn(5)]
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
		for j := range w.Events {
			if g.Events[j] != w.Events[j] {
				t.Fatalf("phase %d event %d is %+v, reference %+v", k, j, g.Events[j], w.Events[j])
			}
		}
	}
}

func TestAnalysisMatchesReferences(t *testing.T) {
	rng := sim.NewRNG(2010)
	keep := dataOp(64 << 10)
	for i := 0; i < 300; i++ {
		events, marks, end := randomTrace(rng, i)

		samePhases(t, Phases(events, marks, end), refPhases(events, marks, end))

		phases, idx := phaseIndex(events, marks, end)
		got, want := phaseDurations(events, phases, idx, keep), refPhaseDurations(events, marks, end, keep)
		if len(got) != len(want) {
			t.Fatalf("trace %d: %d phase duration sets, reference %d", i, len(got), len(want))
		}
		for k := range want {
			if got[k].name != want[k].name || len(got[k].durs) != len(want[k].durs) {
				t.Fatalf("trace %d phase %d: %q with %d durations, reference %q with %d",
					i, k, got[k].name, len(got[k].durs), want[k].name, len(want[k].durs))
			}
			for j := range want[k].durs {
				if !sameFloat(got[k].durs[j], want[k].durs[j]) {
					t.Fatalf("trace %d phase %d duration %d: %v, reference %v", i, k, j, got[k].durs[j], want[k].durs[j])
				}
			}
		}

		ranks, meds := rankMedians(events, 64<<10)
		wantRanks, wantMed := refRankMedians(events, 64<<10)
		if len(ranks) != len(wantRanks) {
			t.Fatalf("trace %d: %d ranks with medians, reference %d", i, len(ranks), len(wantRanks))
		}
		for k, r := range wantRanks {
			if ranks[k] != r || !sameFloat(meds[k], wantMed[r]) {
				t.Fatalf("trace %d: rank %d median %v, reference rank %d median %v", i, ranks[k], meds[k], r, wantMed[r])
			}
		}

		acts, wantActs := RankActivities(events), refRankActivities(events)
		if len(acts) != len(wantActs) {
			t.Fatalf("trace %d: %d rank activities, reference %d", i, len(acts), len(wantActs))
		}
		for k, w := range wantActs {
			g := acts[k]
			if g.Rank != w.Rank || g.Events != w.Events ||
				!sameFloat(float64(g.Busy), float64(w.Busy)) || !sameFloat(float64(g.Exclusive), float64(w.Exclusive)) {
				t.Fatalf("trace %d: activity %+v, reference %+v", i, g, w)
			}
		}
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
