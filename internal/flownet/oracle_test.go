package flownet

import (
	"math"
	"testing"

	"ensembleio/internal/sim"
	"ensembleio/internal/telemetry"
)

// checkCalendar is the brute-force reference for the completion
// calendar: it scans every live stream and checks that the calendar
// holds exactly the live streams with a finite deadline, each in the
// slot it records and in heap order, that its minimum is the bitwise
// minimum live deadline, and that no live stream is overdue (a
// deadline in the past means a completion was missed).
func checkCalendar(t *testing.T, f *Fabric) {
	t.Helper()
	checkHeap(t, &f.cal)
	now := f.eng.Now()
	min := sim.Infinity
	scheduled := 0
	for _, p := range f.actPorts {
		for _, s := range p.streams {
			if s.deadline < now {
				t.Fatalf("t=%v: stream %d is overdue (deadline %v)", now, s.id, s.deadline)
			}
			if s.deadline < min {
				min = s.deadline
			}
			switch {
			case s.deadline < sim.Infinity:
				scheduled++
				if s.calIdx < 0 || s.calIdx >= len(f.cal.a) || f.cal.a[s.calIdx] != s {
					t.Fatalf("t=%v: stream %d (deadline %v) is not in the calendar", now, s.id, s.deadline)
				}
			case s.calIdx >= 0:
				t.Fatalf("t=%v: stream %d has no deadline but sits in calendar slot %d", now, s.id, s.calIdx)
			}
		}
	}
	if n := len(f.cal.a); n != scheduled {
		t.Fatalf("t=%v: calendar holds %d entries, %d live streams have a deadline", now, n, scheduled)
	}
	if got := f.cal.minDeadline(); !sameBits(got, min) {
		t.Fatalf("t=%v: calendar minimum %v, brute-force scan %v", now, got, min)
	}
}

// checkHeap checks that every calendar entry records its own slot and
// orders no earlier than its parent.
func checkHeap(t *testing.T, c *calendar) {
	t.Helper()
	for i, s := range c.a {
		if s.calIdx != i {
			t.Fatalf("calendar slot %d holds stream %d recording slot %d", i, s.id, s.calIdx)
		}
		if i > 0 && before(s, c.a[(i-1)/2]) {
			t.Fatalf("heap order broken at slot %d", i)
		}
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

// TestIndexedCalendarMatchesSortedReference drives the calendar
// through a seeded random sequence of inserts, re-sifts after a
// deadline change, removals (of scheduled and unscheduled streams)
// and pops. Coarse deadlines force ties, so pop order rests on the
// (deadline, id) tie-break. After every step the heap must hold
// exactly the reference set with every slot index current, and every
// pop must return the reference's (deadline, id) minimum.
func TestIndexedCalendarMatchesSortedReference(t *testing.T) {
	rng := sim.NewRNG(7)
	streams := make([]*Stream, 64)
	for i := range streams {
		streams[i] = &Stream{id: uint64(i + 1), calIdx: -1}
	}
	var cal calendar
	in := make(map[*Stream]bool)
	refMin := func() *Stream {
		var best *Stream
		for s := range in {
			if best == nil || s.deadline < best.deadline || (s.deadline == best.deadline && s.id < best.id) {
				best = s
			}
		}
		return best
	}
	pops := 0
	for step := 0; step < 20000; step++ {
		s := streams[rng.Intn(len(streams))]
		switch op := rng.Intn(10); {
		case op < 5: // insert, or re-sift after a deadline change
			s.deadline = sim.Time(rng.Intn(40))
			cal.fix(s)
			in[s] = true
		case op < 7:
			cal.remove(s)
			delete(in, s)
		default:
			want := refMin()
			if want == nil {
				if len(cal.a) != 0 {
					t.Fatalf("step %d: reference empty, calendar holds %d", step, len(cal.a))
				}
				continue
			}
			if got := cal.pop(); got != want {
				t.Fatalf("step %d: popped stream %d (deadline %v), reference minimum is stream %d (deadline %v)",
					step, got.id, got.deadline, want.id, want.deadline)
			}
			delete(in, want)
			pops++
		}
		checkHeap(t, &cal)
		if len(cal.a) != len(in) {
			t.Fatalf("step %d: calendar holds %d streams, reference %d", step, len(cal.a), len(in))
		}
		for s := range in {
			if s.calIdx < 0 || cal.a[s.calIdx] != s {
				t.Fatalf("step %d: stream %d missing from the calendar", step, s.id)
			}
		}
		for _, s := range streams {
			if !in[s] && s.calIdx != -1 {
				t.Fatalf("step %d: removed stream %d still records slot %d", step, s.id, s.calIdx)
			}
		}
	}
	if pops < 1000 {
		t.Fatalf("only %d pops; the pop order check is too thin", pops)
	}
}

// TestRandomizedChurnMatchesOracle drives a seeded random population
// through both scheduling regimes — mixed port caps and weights,
// capped and weighted streams, follow-up transfers started from Done
// callbacks, and degraded-link SetCapMBps edges — while the oracle
// checks the calendar from every completion and from a poke train.
// The population crosses exactThreshold in both directions, and the
// calendar must hold exactly the scheduled live streams throughout.
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
	started, finished, peak := 0, 0, 0
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
}

// shadowStream is one live stream as the unconditional water-fill
// would leave it: the anchored progress model of Stream, advanced by a
// full re-fill of every port on every recompute.
type shadowStream struct {
	anchorT   sim.Time
	anchorRem float64
	rate      float64
	deadline  sim.Time
}

// set mirrors Fabric.setRate: the anchor moves only on a bitwise rate
// change.
func (sh *shadowStream) set(r float64, now sim.Time) {
	if math.Float64bits(r) == math.Float64bits(sh.rate) {
		return
	}
	rem := sh.anchorRem
	if sh.rate > 0 {
		rem -= sh.rate * float64(now-sh.anchorT)
	}
	sh.anchorT, sh.anchorRem, sh.rate = now, rem, r
	switch {
	case r <= 0:
		sh.deadline = sim.Infinity
	case rem <= 0:
		sh.deadline = now
	default:
		sh.deadline = now + sim.Time(rem/r)
	}
}

// referenceFill is the two-level water-fill without the per-port
// skip: every port's stream caps are rescanned and every port's share
// is re-distributed on every call. It returns each live stream's rate
// and each port's share.
func referenceFill(f *Fabric) (rates map[*Stream]float64, shares map[*Port]float64) {
	var ports []*Port
	for _, p := range f.actPorts {
		if len(p.streams) > 0 {
			ports = append(ports, p)
		}
	}
	maxUse := make([]float64, len(ports))
	share := make([]float64, len(ports))
	frozen := make([]bool, len(ports))
	totalW := 0.0
	for i, p := range ports {
		max := p.cap
		if max <= 0 {
			max = math.Inf(1)
		}
		capSum := 0.0
		allCapped := true
		for _, s := range p.streams {
			if s.rateCap <= 0 {
				allCapped = false
				break
			}
			capSum += s.rateCap
		}
		if allCapped && capSum < max {
			max = capSum
		}
		maxUse[i] = max
		totalW += p.weight
	}
	remaining, wRem := f.cap, totalW
	for wRem > 0 {
		level := remaining / wRem
		froze := false
		for i, p := range ports {
			if !frozen[i] && maxUse[i] <= p.weight*level {
				frozen[i], share[i] = true, maxUse[i]
				remaining -= maxUse[i]
				wRem -= p.weight
				froze = true
			}
		}
		if !froze {
			for i, p := range ports {
				if !frozen[i] {
					share[i] = p.weight * level
				}
			}
			break
		}
	}
	rates = make(map[*Stream]float64)
	shares = make(map[*Port]float64)
	for i, p := range ports {
		shares[p] = share[i]
		sFrozen := make(map[*Stream]bool)
		totalW := 0.0
		for _, s := range p.streams {
			totalW += s.weight
		}
		remaining, wRem := share[i], totalW
		for wRem > 0 {
			level := remaining / wRem
			froze := false
			for _, s := range p.streams {
				if sFrozen[s] {
					continue
				}
				max := s.rateCap
				if max <= 0 {
					max = math.Inf(1)
				}
				if max <= s.weight*level {
					sFrozen[s], rates[s] = true, max
					remaining -= max
					wRem -= s.weight
					froze = true
				}
			}
			if !froze {
				for _, s := range p.streams {
					if !sFrozen[s] {
						rates[s] = s.weight * level
					}
				}
				break
			}
		}
	}
	return rates, shares
}

// fillRecord is the freezing record a refit reads, as the last full
// fill left it: each round's level, the last round that froze a port,
// whether every port froze, and each port's limit and freeze round.
type fillRecord struct {
	levels    []float64
	lastRound int
	allFrozen bool
	maxUse    map[*Port]float64
	round     map[*Port]int
}

func recordFill(f *Fabric, ports []*Port) fillRecord {
	r := fillRecord{
		levels:    append([]float64(nil), f.levels...),
		lastRound: f.lastRound,
		allFrozen: f.allFrozen,
		maxUse:    make(map[*Port]float64, len(ports)),
		round:     make(map[*Port]int, len(ports)),
	}
	for _, p := range ports {
		r.maxUse[p], r.round[p] = p.maxUse, p.round
	}
	return r
}

// refitBranch names the case in which giving port p the new maximum
// useful rate lim provably keeps every freezing decision of the
// recorded fill, or returns "" when only a full fill is exact.
func (r fillRecord) refitBranch(p *Port, lim float64) string {
	first := -1
	for k, level := range r.levels {
		if lim <= p.weight*level {
			first = k
			break
		}
	}
	round := r.round[p]
	switch {
	case math.Float64bits(lim) == math.Float64bits(r.maxUse[p]):
		return "same-bits"
	case round < 0 && first < 0:
		return "stays-unfrozen"
	case r.allFrozen && round == r.lastRound && first == round:
		return "frozen-last-round"
	}
	return ""
}

// TestPortSkipMatchesUnconditionalFill checks that recompute's
// incremental paths are exact: the refit, which redistributes only the
// changed ports when their new limits keep every freezing decision of
// the last full fill, and the per-port skip, which re-distributes no
// port that is unchanged and offered a bitwise-equal share. A seeded
// random population runs through both scheduling regimes with capped
// and uncapped, weighted streams on weighted ports, staggered joins,
// follow-up transfers started from Done callbacks and mid-flight
// SetCapMBps, including probes that cap an unfrozen port at exactly its
// fair share. After every refresh each live stream's rate and deadline
// must equal, bit for bit, those of a shadow model re-filled
// unconditionally, and after every recompute no emptied port may stay
// listed. Each refit case and the full-fill fallback must be exercised.
func TestPortSkipMatchesUnconditionalFill(t *testing.T) {
	rng := sim.NewRNG(19)
	eng := sim.NewEngine()
	fab := New(eng, Config{AggregateMBps: 6000, Quantum: 0.05})
	fab.Instrument(telemetry.New())
	ports := make([]*Port, 32)
	for i := range ports {
		capMBps := 0.0
		if i%4 != 0 {
			capMBps = rng.Uniform(50, 1500)
		}
		ports[i] = fab.NewWeightedPort(capMBps, float64(1+rng.Intn(3)))
	}
	shadow := make(map[uint64]*shadowStream)
	touched := make(map[*Port]bool) // join, completion or cap change since the last recompute
	needFull := false               // a port was listed or emptied since the last recompute
	fill := recordFill(fab, ports)
	branches := make(map[string]int)
	lastShare := make(map[*Port]float64)
	started, finished, peak, checks, skippable, probes := 0, 0, 0, 0, 0, 0
	var launch func(follow int)
	launch = func(follow int) {
		p := ports[rng.Intn(len(ports))]
		demand := rng.Uniform(1, 150)
		opts := StreamOpts{Weight: float64(1 + rng.Intn(3))}
		if rng.Intn(3) == 0 {
			opts.RateCap = rng.Uniform(5, 400)
		}
		opts.Done = func() {
			finished++
			if follow > 0 {
				launch(follow - 1)
			}
		}
		started++
		if !p.listed {
			needFull = true
		}
		s := p.Start(demand, opts)
		shadow[s.id] = &shadowStream{anchorT: eng.Now(), anchorRem: demand, deadline: sim.Infinity}
		touched[p] = true
		if n := fab.ActiveStreams(); n > peak {
			peak = n
		}
	}
	// classify names the path the recompute that just ran had to take:
	// the full fill, or a refit whose changed ports each satisfy one of
	// the cases in refitBranch.
	classify := func() {
		full := needFull
		var hits []string
		if !full {
			for p := range touched {
				if !p.listed {
					continue // an idle port's cap change; its next join lists it
				}
				b := fill.refitBranch(p, p.maxUse)
				if b == "" {
					full = true
					break
				}
				hits = append(hits, b)
			}
		}
		if full {
			branches["full-fill"]++
			return
		}
		for _, b := range hits {
			branches[b]++
		}
	}
	lastRecomputes := 0.0
	check := func() {
		now := eng.Now()
		live := make(map[uint64]bool, fab.ActiveStreams())
		recomputed := fab.telRecomputes.Value() > lastRecomputes
		lastRecomputes = fab.telRecomputes.Value()
		var rates map[*Stream]float64
		if !fab.dirty && fab.active > 0 {
			var shares map[*Port]float64
			rates, shares = referenceFill(fab)
			if recomputed {
				for _, p := range fab.actPorts {
					if len(p.streams) == 0 {
						t.Fatalf("t=%v: an emptied port is still listed after a recompute", now)
					}
				}
				for _, p := range ports {
					if len(p.streams) > 0 && !p.listed {
						t.Fatalf("t=%v: a port with %d streams is not listed", now, len(p.streams))
					}
				}
				classify()
				for p, sh := range shares {
					if old, ok := lastShare[p]; ok && !touched[p] && math.Float64bits(old) == math.Float64bits(sh) {
						skippable++
					}
					lastShare[p] = sh
				}
				for p := range touched {
					delete(touched, p)
				}
				needFull = false
				fill = recordFill(fab, ports)
			}
		}
		for _, p := range fab.actPorts {
			for _, s := range p.streams {
				sh := shadow[s.id]
				live[s.id] = true
				if rates != nil {
					sh.set(rates[s], now)
				}
				if math.Float64bits(s.rate) != math.Float64bits(sh.rate) || !sameBits(s.deadline, sh.deadline) {
					t.Fatalf("t=%v: stream %d rate %v deadline %v, unconditional fill gives rate %v deadline %v",
						now, s.id, s.rate, s.deadline, sh.rate, sh.deadline)
				}
			}
		}
		for id := range shadow {
			if !live[id] {
				delete(shadow, id)
			}
		}
		checks++
	}
	// The check runs after each refresh, so wrap the fabric's two
	// wake-up paths. A refresh only removes streams, so a port that
	// holds fewer afterwards had a completion, and one left with none
	// was emptied.
	lens := make([]int, len(ports))
	around := func(refresh func()) {
		for i, p := range ports {
			lens[i] = len(p.streams)
		}
		refresh()
		for i, p := range ports {
			if n := len(p.streams); n < lens[i] {
				touched[p] = true
				if n == 0 {
					needFull = true
				}
			}
		}
		check()
	}
	poke, tick := fab.pokeFn, fab.tickFn
	fab.pokeFn = func() { around(poke) }
	fab.tickFn = func(gen uint64) { around(func() { tick(gen) }) }
	eng.At(0, func() {
		for i := 0; i < 700; i++ {
			launch(rng.Intn(2))
		}
	})
	for i := 0; i < 500; i++ {
		eng.At(sim.Time(rng.Uniform(0, 25)), func() { launch(rng.Intn(3)) })
	}
	for i := 0; i < 30; i++ {
		p := ports[rng.Intn(len(ports))]
		capMBps := []float64{0, 20, rng.Uniform(50, 1500)}[rng.Intn(3)]
		eng.At(sim.Time(rng.Uniform(0, 25)), func() {
			p.SetCapMBps(capMBps)
			touched[p] = true
		})
	}
	// Probes of the refit's edges. An unfrozen port capped at exactly
	// its share ties the weighted level of the fill's last round, so it
	// must freeze there and the full fill must rerun. A port frozen in
	// the last freezing round whose cap tightens but stays above the
	// previous round's level freezes in the same round again; that
	// keeps the other shares only if no port was left unfrozen.
	for i := 0; i < 400; i++ {
		p := ports[rng.Intn(len(ports))]
		tie := i%2 == 0
		eng.At(sim.Time(rng.Uniform(0, 25)), func() {
			if !p.listed || fab.dirty || len(p.streams) == 0 || fab.ActiveStreams() > exactThreshold {
				return
			}
			switch {
			case tie && p.round < 0:
				p.SetCapMBps(p.share)
			case !tie && p.round >= 0 && p.round == fab.lastRound:
				lo := 0.0
				if p.round > 0 {
					lo = p.weight * fab.levels[p.round-1]
				}
				p.SetCapMBps((lo + p.maxUse) / 2)
			default:
				return
			}
			touched[p] = true
			probes++
		})
	}
	eng.Run()
	if finished != started || fab.ActiveStreams() != 0 {
		t.Fatalf("%d of %d streams finished, %d still active", finished, started, fab.ActiveStreams())
	}
	if peak <= exactThreshold {
		t.Fatalf("peak population %d never crossed exactThreshold %d", peak, exactThreshold)
	}
	if skippable == 0 {
		t.Fatalf("no recompute re-offered an untouched port its old share in %d checks: the skip was never exercised", checks)
	}
	if probes == 0 {
		t.Fatal("no boundary probe found an unfrozen port")
	}
	for _, b := range []string{"same-bits", "stays-unfrozen", "frozen-last-round", "full-fill"} {
		if branches[b] == 0 {
			t.Fatalf("recompute path %q never taken in %d checks (taken: %v)", b, checks, branches)
		}
	}
	t.Logf("recompute paths: %v; %d boundary probes", branches, probes)
}
