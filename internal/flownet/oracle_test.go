package flownet

import (
	"testing"

	"ensembleio/internal/sim"
)

// checkCalendar is the brute-force reference for the completion
// calendar: it scans every live stream and checks that minDeadline is
// the bitwise minimum live deadline, that every live stream with a
// finite deadline has a valid calendar entry, and that no live stream
// is overdue (a deadline in the past means a completion was missed).
func checkCalendar(t *testing.T, f *Fabric) {
	t.Helper()
	inCal := make(map[*Stream]bool, f.cal.len())
	for _, e := range f.cal.a {
		if e.valid() {
			inCal[e.s] = true
		}
	}
	now := f.eng.Now()
	min := sim.Infinity
	for _, p := range f.actPorts {
		for _, s := range p.streams {
			if s.deadline < now {
				t.Fatalf("t=%v: stream %d is overdue (deadline %v)", now, s.id, s.deadline)
			}
			if s.deadline < min {
				min = s.deadline
			}
			if s.deadline < sim.Infinity && !inCal[s] {
				t.Fatalf("t=%v: stream %d (deadline %v) has no valid calendar entry", now, s.id, s.deadline)
			}
		}
	}
	if got := f.minDeadline(); !sameBits(got, min) {
		t.Fatalf("t=%v: calendar minDeadline %v, brute-force scan %v", now, got, min)
	}
}

// completionOracle checks that completions arrive in (deadline, id)
// order and runs checkCalendar from every Done callback. A refresh
// schedules all of its Done callbacks before any later refresh can
// run, so the fabric's wake generation at callback time names the
// refresh that completed the stream.
type completionOracle struct {
	t      *testing.T
	f      *Fabric
	n      int
	gen    uint64
	at     sim.Time
	lastID uint64
}

// start begins a transfer whose Done callback is checked by the
// oracle before the caller's own callback runs. demandMB must be
// positive: zero-demand streams never enter the calendar.
func (o *completionOracle) start(p *Port, demandMB float64, opts StreamOpts) *Stream {
	var id uint64
	user := opts.Done
	opts.Done = func() {
		o.observe(id)
		if user != nil {
			user()
		}
	}
	s := p.Start(demandMB, opts)
	id = s.id
	return s
}

func (o *completionOracle) observe(id uint64) {
	t, f := o.t, o.f
	t.Helper()
	now := f.eng.Now()
	if o.n > 0 {
		if now < o.at {
			t.Fatalf("stream %d completed at %v, before the previous completion at %v", id, now, o.at)
		}
		if f.gen == o.gen && (!sameBits(now, o.at) || id <= o.lastID) {
			t.Fatalf("one refresh completed stream %d at %v after stream %d at %v: not (deadline, id) order",
				id, now, o.lastID, o.at)
		}
	}
	o.n++
	o.gen, o.at, o.lastID = f.gen, now, id
	checkCalendar(t, f)
}

// pokeTrain schedules an external event every `every` virtual seconds
// for the next `span` seconds that pokes the fabric and checks the
// calendar. Pokes add refreshes but must never move a completion.
func pokeTrain(t *testing.T, f *Fabric, every, span sim.Duration) {
	now := f.eng.Now()
	for at := now + sim.Time(every); at <= now+sim.Time(span); at += sim.Time(every) {
		f.eng.At(at, func() {
			f.poke()
			checkCalendar(t, f)
		})
	}
}

// TestCalendarCompactPreservesPopOrder builds a heap in which most
// entries are stale — re-rated streams, finished streams, recycled
// stream objects — and checks that compact keeps exactly the valid
// entries, restores the heap property, and pops the same valid
// sequence as the uncompacted heap.
func TestCalendarCompactPreservesPopOrder(t *testing.T) {
	rng := sim.NewRNG(7)
	streams := make([]*Stream, 200)
	var cal calendar
	for i := range streams {
		s := &Stream{id: uint64(i + 1)}
		streams[i] = s
		// Several re-rates per stream; only the last entry stays valid.
		// Coarse deadlines force (deadline, id) ties.
		for k := 0; k < 1+rng.Intn(4); k++ {
			s.deadline = sim.Time(rng.Intn(50))
			cal.push(calEntry{dl: s.deadline, id: s.id, s: s})
		}
	}
	for i, s := range streams {
		switch i % 5 {
		case 0:
			s.finished = true
		case 1:
			s.id += 1000 // the object was recycled for another transfer
		}
	}
	validPops := func(c *calendar) []calEntry {
		var out []calEntry
		for c.len() > 0 {
			if e := c.pop(); e.valid() {
				out = append(out, e)
			}
		}
		return out
	}
	compacted := calendar{a: append([]calEntry(nil), cal.a...)}
	compacted.compact()
	for i, e := range compacted.a {
		if !e.valid() {
			t.Fatalf("compact kept stale entry %+v", e)
		}
		if i > 0 && compacted.less(i, (i-1)/2) {
			t.Fatalf("heap property broken at %d after compact", i)
		}
	}
	want := validPops(&cal)
	if compacted.len() != len(want) {
		t.Fatalf("compact kept %d entries, want the %d valid ones", compacted.len(), len(want))
	}
	got := validPops(&compacted)
	if len(want) == 0 {
		t.Fatal("no valid entries; the check is vacuous")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop %d: compacted %+v, reference %+v", i, got[i], want[i])
		}
	}
}

// TestRandomizedChurnMatchesOracle drives a seeded random population
// through both scheduling regimes — mixed port caps and weights,
// capped and weighted streams, follow-up transfers started from Done
// callbacks, and degraded-link SetCapMBps edges — while the oracle
// checks the calendar from every completion and from a poke train.
// The population crosses exactThreshold in both directions, and the
// calendar must stay within a constant factor of the peak population.
func TestRandomizedChurnMatchesOracle(t *testing.T) {
	rng := sim.NewRNG(20100419)
	eng := sim.NewEngine()
	fab := New(eng, Config{AggregateMBps: 8000, Quantum: 0.05})
	o := &completionOracle{t: t, f: fab}
	ports := make([]*Port, 24)
	for i := range ports {
		capMBps := 0.0
		if i%3 != 0 {
			capMBps = rng.Uniform(100, 2000)
		}
		ports[i] = fab.NewWeightedPort(capMBps, float64(1+rng.Intn(4)))
	}
	started, finished, peak, peakCal := 0, 0, 0, 0
	var launch func(follow int)
	launch = func(follow int) {
		opts := StreamOpts{Weight: float64(1 + rng.Intn(3))}
		if rng.Intn(3) == 0 {
			opts.RateCap = rng.Uniform(5, 500)
		}
		opts.Done = func() {
			finished++
			if follow > 0 {
				launch(follow - 1)
			}
		}
		started++
		o.start(ports[rng.Intn(len(ports))], rng.Uniform(1, 200), opts)
		if fab.ActiveStreams() > peak {
			peak = fab.ActiveStreams()
		}
	}
	// A burst well above exactThreshold, then a staggered trickle that
	// keeps re-rating the population as it drains below the threshold.
	eng.At(0, func() {
		for i := 0; i < 900; i++ {
			launch(rng.Intn(2))
		}
	})
	for i := 0; i < 600; i++ {
		eng.At(sim.Time(rng.Uniform(0, 20)), func() { launch(rng.Intn(3)) })
	}
	for i := 0; i < 40; i++ {
		p := ports[rng.Intn(len(ports))]
		capMBps := []float64{0, 5, rng.Uniform(100, 2000)}[rng.Intn(3)]
		eng.At(sim.Time(rng.Uniform(0, 20)), func() { p.SetCapMBps(capMBps) })
	}
	for at := sim.Time(0.0137); at < 60; at += 0.0137 {
		eng.At(at, func() {
			if n := fab.cal.len(); n > peakCal {
				peakCal = n
			}
			fab.poke()
			checkCalendar(t, fab)
		})
	}
	eng.Run()
	if finished != started || fab.ActiveStreams() != 0 {
		t.Fatalf("%d of %d streams finished, %d still active", finished, started, fab.ActiveStreams())
	}
	if peak <= exactThreshold {
		t.Fatalf("peak population %d never crossed exactThreshold %d", peak, exactThreshold)
	}
	if o.n != started {
		t.Fatalf("oracle saw %d of %d completions", o.n, started)
	}
	if limit := 2*peak + 64; peakCal > limit {
		t.Fatalf("calendar grew to %d entries with at most %d streams live (limit %d): stale entries are not compacted",
			peakCal, peak, limit)
	}
}
