// Package flownet models shared-bandwidth data movement as fluid flows
// through a two-level fabric: an aggregate capacity (the back-end I/O
// fabric, e.g. the path from compute nodes through the network to the
// storage servers) divided among ports (one per compute node client),
// each of which divides its share among its active streams.
//
// Rates are allocated max-min fairly (water-filling) with optional
// per-port weights/caps and per-stream weights/caps. Every stream
// carries an anchored closed-form progress model — remaining bytes are
// a linear function of time between rate changes — so completions fire
// at their exact analytic deadline regardless of population size. To
// keep the event count proportional to the number of transfers rather
// than to bytes, rate *recomputation* above exactThreshold is batched:
// membership changes only mark the allocation dirty, and the water-fill
// reruns one quantum after the first unabsorbed change. The
// quantization error on any transfer duration is bounded by one
// quantum, and — unlike the historical quantum-tick scheme, which
// detected completions with up to one quantum of lag — the error now
// lives entirely in rate reassignment: completion times themselves are
// exact for the rates in force (see DESIGN.md §13).
package flownet

import (
	"fmt"
	"math"

	"ensembleio/internal/sim"
	"ensembleio/internal/telemetry"
)

// Config parametrizes a Fabric.
type Config struct {
	// AggregateMBps is the total back-end bandwidth in MB/s shared by
	// all ports.
	AggregateMBps float64
	// Quantum is the rate-recomputation interval in virtual seconds.
	// Zero selects a default of 50 ms.
	Quantum sim.Duration
}

// Fabric is a shared bandwidth domain. Create one with New.
//
// Scheduling: while the active-stream population is at most
// exactThreshold, every membership change recomputes rates
// immediately. Beyond the threshold, changes only mark the allocation
// dirty and the recompute is deferred to one quantum after the first
// unabsorbed change, coalescing whole barrier storms into a single
// water-fill. Completions are scheduled at their exact analytic
// deadlines in both regimes; between membership changes the fabric's
// single wake-up event jumps the virtual clock straight to the next
// deadline (or deferred recompute), fast-forwarding uncontended
// stretches in O(1) instead of ticking quanta through them.
type Fabric struct {
	eng        *sim.Engine
	cap        float64
	quantum    sim.Duration
	ports      []*Port
	actPorts   []*Port // ports with ≥1 stream (stale empties linger until the next recompute)
	active     int     // number of active streams across all ports
	pokeSet    bool
	gen        uint64    // invalidates scheduled wake-ups
	dirty      bool      // membership or caps changed since the last recompute
	dirtySince sim.Time  // instant dirty last flipped on; recompute lands at +quantum
	lastWake   sim.Time  // previous refresh instant (fast-forward accounting)
	nextID     uint64    // monotone stream ids; completion tie-break and calendar validity
	free       []*Stream // engine-owned stream free list (see DESIGN.md §11)
	due        []*Stream // scratch: streams completing at the current instant
	touched    []*Port   // scratch: ports needing compaction after completions
	cal        calendar  // live streams with a finite deadline, by (deadline, id)
	chPorts    []*Port   // ports whose changed mark is set
	refill     bool      // a port was listed or emptied since the last recompute
	pokeFn     func()
	tickFn     func(uint64)

	// The last full fill's freezing record, which lets a recompute
	// refit only the changed ports (see keepsDecisions): each round's level,
	// the last round that froze a port (-1 = none), and whether every
	// port froze. Each port keeps its own freeze round in Port.round.
	levels    []float64
	lastRound int
	allFrozen bool

	// Telemetry handles cached by Instrument; nil handles no-op, so the
	// hot loops below pay a nil check and nothing else when disabled.
	telRefreshes  *telemetry.Counter
	telRecomputes *telemetry.Counter
	telMaxStreams *telemetry.Gauge
}

// exactThreshold is the active-stream population up to which every
// membership change recomputes rates immediately; larger populations
// defer the water-fill by one quantum.
const exactThreshold = 512

// New returns a fabric on the given engine.
func New(eng *sim.Engine, cfg Config) *Fabric {
	if cfg.AggregateMBps <= 0 {
		panic("flownet: aggregate capacity must be positive")
	}
	q := cfg.Quantum
	if q == 0 {
		q = 0.05
	}
	f := &Fabric{eng: eng, cap: cfg.AggregateMBps, quantum: q}
	// Both scheduling closures are allocated once here and reused for
	// every poke and wake-up over the fabric's lifetime.
	f.pokeFn = func() {
		f.pokeSet = false
		f.refresh()
	}
	f.tickFn = func(gen uint64) {
		if f.gen == gen {
			f.refresh()
		}
	}
	return f
}

// AggregateMBps returns the configured aggregate capacity.
func (f *Fabric) AggregateMBps() float64 { return f.cap }

// Instrument attaches a telemetry sink (nil = disabled) and caches the
// fabric's metric handles.
func (f *Fabric) Instrument(tel *telemetry.Sink) {
	f.telRefreshes = tel.Counter("flownet.refreshes")
	f.telRecomputes = tel.Counter("flownet.recomputes")
	f.telMaxStreams = tel.Gauge("flownet.active_streams")
}

// Port is one client of the fabric (typically a compute node). Its
// active streams share the port's allocation.
type Port struct {
	fab     *Fabric
	cap     float64 // local link capacity, MB/s (0 = unlimited)
	weight  float64 // share weight at fabric level
	streams []*Stream
	share   float64 // current port allocation, MB/s
	listed  bool    // present in fab.actPorts (possibly as a stale empty)
	maxUse  float64 // maximum useful rate; rescanned only when changed
	round   int     // round the last full fill froze the port in (-1 = unfrozen)
	touched bool    // scratch: has completions pending removal
	// changed marks a join, a completion or a cap change since the last
	// distribute, and puts the port on fab.chPorts; distShare is the
	// share that distribute last ran at. An unchanged port re-offered a
	// bitwise-equal share would assign every stream the rate it
	// already has, so distribute skips it.
	changed   bool
	distShare float64
}

// NewPort adds a port with the given local link capacity in MB/s
// (0 means no local limit) and fabric-level weight 1.
func (f *Fabric) NewPort(capMBps float64) *Port {
	return f.NewWeightedPort(capMBps, 1)
}

// NewWeightedPort adds a port whose fabric-level share is proportional
// to weight. A background-load injector uses a weighted port.
func (f *Fabric) NewWeightedPort(capMBps, weight float64) *Port {
	if weight <= 0 {
		panic("flownet: port weight must be positive")
	}
	p := &Port{fab: f, cap: capMBps, weight: weight}
	f.ports = append(f.ports, p)
	return p
}

// SetCapMBps changes the port's local link capacity in MB/s (0 = no
// local limit). Degraded-link fault injection uses it; a change while
// streams are in flight takes effect at the next rate recomputation.
// An idle port needs no mark: its next join marks it.
func (p *Port) SetCapMBps(capMBps float64) {
	p.cap = capMBps
	if p.listed {
		f := p.fab
		f.markChanged(p)
		f.markDirty(f.eng.Now())
		f.poke()
	}
}

// CapMBps returns the port's local link capacity (0 = no local limit).
func (p *Port) CapMBps() float64 { return p.cap }

// StreamOpts tunes one transfer.
type StreamOpts struct {
	// RateCap limits this stream's rate in MB/s (0 = unlimited). Used
	// to model request-size/latency-limited transfers such as
	// degenerate page-sized read RPCs.
	RateCap float64
	// Weight sets the within-port share weight (default 1).
	Weight float64
	// Done is called at the stream's exact completion time.
	Done func()
}

// Stream is one in-flight transfer. A Stream is only valid until its
// completion: once Done has been scheduled the fabric recycles the
// object through its free list, so callers must not retain or inspect
// a Stream after its transfer finishes.
//
// Progress is anchored closed-form: between rate changes, remaining
// bytes are anchorRem - rate*(t-anchorT), and the absolute completion
// deadline is a pure function of the anchor. The anchor moves only
// when the assigned rate actually changes (bitwise), so an unchanged
// allocation keeps every deadline bit-stable across recomputes — the
// invariant that keeps the completion calendar free of needless
// re-sifts.
type Stream struct {
	port      *Port
	id        uint64   // monotone per-fabric; completion tie-break
	anchorT   sim.Time // instant of the last rate change
	anchorRem float64  // MB remaining at anchorT
	rateCap   float64
	weight    float64
	rate      float64  // current allocation, MB/s
	deadline  sim.Time // absolute completion time at the current rate (Infinity while idle)
	calIdx    int      // slot in the fabric's calendar (-1 = not scheduled)
	joined    sim.Time
	done      func()
	finished  bool
	frozen    bool // scratch: water-fill freeze mark
}

// Rate returns the stream's current fluid rate in MB/s. Exposed for
// instrumentation and tests.
func (s *Stream) Rate() float64 { return s.rate }

// Deadline returns the stream's absolute analytic completion time at
// its current rate (Infinity while it awaits an allocation). Exposed
// for instrumentation and the hazard tests.
func (s *Stream) Deadline() sim.Time { return s.deadline }

// Start begins an asynchronous transfer of demandMB megabytes on the
// port. Zero-demand streams complete immediately.
func (p *Port) Start(demandMB float64, opts StreamOpts) *Stream {
	if demandMB < 0 {
		panic("flownet: negative demand")
	}
	w := opts.Weight
	if w == 0 {
		w = 1
	}
	f := p.fab
	now := f.eng.Now()
	if demandMB == 0 {
		// Zero-demand streams never enter a port, so they never reach
		// the completion path that feeds the free list; allocate fresh.
		if opts.Done != nil {
			f.eng.At(now, opts.Done)
		}
		return &Stream{port: p, rateCap: opts.RateCap, weight: w, calIdx: -1, joined: now, finished: true}
	}
	var s *Stream
	if n := len(f.free); n > 0 {
		s = f.free[n-1]
		f.free[n-1] = nil
		f.free = f.free[:n-1]
	} else {
		s = &Stream{}
	}
	f.nextID++
	*s = Stream{
		port:      p,
		id:        f.nextID,
		anchorT:   now,
		anchorRem: demandMB,
		rateCap:   opts.RateCap,
		weight:    w,
		deadline:  sim.Infinity,
		calIdx:    -1,
		joined:    now,
		done:      opts.Done,
	}
	p.streams = append(p.streams, s)
	if !p.listed {
		p.listed = true
		f.actPorts = append(f.actPorts, p)
		f.refill = true
	}
	f.markChanged(p)
	if f.active == 0 {
		f.lastWake = now // idle gaps are not fast-forwarded stretches
	}
	f.active++
	f.telMaxStreams.Set(float64(f.active))
	f.markDirty(now)
	f.poke()
	return s
}

// Transfer moves demandMB megabytes on behalf of task t: it parks t
// until the stream completes, then runs k. The stream's completion is
// t's wake, so opts.Done must be nil.
func (p *Port) Transfer(t *sim.Task, demandMB float64, opts StreamOpts, k func()) {
	if opts.Done != nil {
		panic("flownet: Transfer with a Done of its own")
	}
	opts.Done = t.Block(k)
	p.Start(demandMB, opts)
}

// markDirty notes that membership or caps changed. The first change of
// a dirty episode pins dirtySince: in the quantized regime the
// recompute lands exactly one quantum later, absorbing every further
// change in between into the same water-fill.
func (f *Fabric) markDirty(now sim.Time) {
	if !f.dirty {
		f.dirty = true
		f.dirtySince = now
	}
}

// markChanged sets a listed port's changed mark and, when the mark
// flips, lists the port for the next recompute.
func (f *Fabric) markChanged(p *Port) {
	if !p.changed {
		p.changed = true
		f.chPorts = append(f.chPorts, p)
	}
}

// poke schedules a refresh at the current instant, coalescing all
// same-instant membership changes (e.g. a whole barrier's worth of
// writes starting together) into one wake-up.
func (f *Fabric) poke() {
	if f.pokeSet {
		return
	}
	f.pokeSet = true
	f.eng.At(f.eng.Now(), f.pokeFn)
}

// refresh is the fabric's single wake-up handler: complete streams
// whose deadlines have arrived, run the water-fill if it is due, and
// schedule the next wake at min(next deadline, deferred recompute).
// Because the wake jumps straight to the next interesting instant,
// long uncontended stretches cost one event regardless of length.
func (f *Fabric) refresh() {
	f.telRefreshes.Inc()
	now := f.eng.Now()
	if f.active > exactThreshold {
		if d := now - f.lastWake; d > f.quantum {
			// The historical quantum-tick scheme would have woken
			// ~d/quantum times across this stretch; account the jump.
			f.eng.NoteFastForward(float64(d))
		}
	}
	f.lastWake = now
	f.completeDue(now)
	f.gen++
	if f.active == 0 {
		f.dirty = false
		return
	}
	if f.dirty && (f.active <= exactThreshold || now >= f.dirtySince+f.quantum) {
		f.recompute(now)
		f.dirty = false
	}
	wake := sim.Infinity
	if f.dirty {
		wake = f.dirtySince + f.quantum
	}
	if dl := f.cal.minDeadline(); dl < wake {
		wake = dl
	}
	if wake < sim.Infinity {
		f.eng.AtArg(wake, f.tickFn, f.gen)
	}
}

// completeDue fires done callbacks for streams whose analytic deadline
// has arrived and removes them from their ports. The calendar pops in
// (deadline, id) order, so simultaneous completions get their done
// events' engine sequence numbers — and with them all downstream
// scheduling — in a fixed order.
func (f *Fabric) completeDue(now sim.Time) {
	f.due = f.due[:0]
	for f.cal.minDeadline() <= now {
		s := f.cal.pop()
		s.finished = true
		f.due = append(f.due, s)
	}
	if len(f.due) == 0 {
		return
	}
	f.touched = f.touched[:0]
	for _, s := range f.due {
		f.active--
		f.markDirty(now)
		if s.done != nil {
			f.eng.At(now, s.done)
		}
		if p := s.port; !p.touched {
			p.touched = true
			f.touched = append(f.touched, p)
		}
	}
	for _, p := range f.touched {
		kept := p.streams[:0]
		for _, s := range p.streams {
			if !s.finished {
				kept = append(kept, s)
			}
		}
		for i := len(kept); i < len(p.streams); i++ {
			p.streams[i] = nil
		}
		p.streams = kept
		p.touched = false
		f.markChanged(p)
		if len(kept) == 0 {
			// Emptied ports stay listed in actPorts until the next
			// recompute compacts them — keeping membership bookkeeping
			// O(completions), not O(ports), on the fast path. That
			// recompute must be a full fill.
			f.refill = true
		}
	}
	for _, s := range f.due {
		// The stream is out of its port and its done callback holds no
		// reference to it; recycle the object.
		s.done = nil
		s.port = nil
		f.free = append(f.free, s)
	}
}

// setRate assigns a stream's water-fill allocation. When the rate is
// bitwise unchanged the anchor — and therefore the deadline — is left
// untouched, so stable allocations never touch the calendar and the
// deadline bits agree across recomputes. On a change the remaining
// bytes are materialized at now, the deadline re-derived, and the
// stream re-sifted in the calendar (or taken out while it has no rate).
func (f *Fabric) setRate(s *Stream, r float64, now sim.Time) {
	if math.Float64bits(r) == math.Float64bits(s.rate) {
		return
	}
	rem := s.anchorRem
	if s.rate > 0 {
		rem -= s.rate * float64(now-s.anchorT)
	}
	s.anchorT, s.anchorRem, s.rate = now, rem, r
	if r <= 0 {
		s.deadline = sim.Infinity
		f.cal.remove(s)
		return
	}
	if rem <= 0 {
		// Float rounding can materialize a non-positive residue just
		// before the old deadline; complete at the current instant.
		s.deadline = now
	} else {
		s.deadline = now + sim.Time(rem/r)
	}
	f.cal.fix(s)
}

// recompute brings the allocation up to date with the membership and
// cap changes since the last one. The changed ports rescan their
// streams' caps; when keepsDecisions shows their new limits leave every
// freezing decision of the last full fill standing, only those ports
// redistribute. Otherwise — and whenever a port was listed or emptied
// — the full fill runs (DESIGN.md §11).
func (f *Fabric) recompute(now sim.Time) {
	f.telRecomputes.Inc()
	refit := !f.refill
	for _, p := range f.chPorts {
		lim := p.useLimit()
		if refit && !f.keepsDecisions(p, lim) {
			refit = false
		}
		p.maxUse = lim
	}
	if refit {
		for _, p := range f.chPorts {
			if p.round >= 0 { // a frozen port's share is its limit
				p.share = p.maxUse
			}
			p.distribute(now)
		}
	} else {
		f.fill(now)
	}
	f.chPorts = f.chPorts[:0]
	f.refill = false
}

// keepsDecisions reports whether the last full fill, rerun with p's
// maximum useful rate set to lim, would freeze every port in the same
// round as before. Then every level it computes is unchanged, and so is
// every other port's share. That holds when lim has the old bits; when
// p was unfrozen and lim still exceeds its weighted level in every
// round; and when the fill froze every port, p froze in the last
// freezing round, and lim first fits there — p then takes lim as its
// share, and no round after it has a port left to re-level.
func (f *Fabric) keepsDecisions(p *Port, lim float64) bool {
	if math.Float64bits(lim) == math.Float64bits(p.maxUse) {
		return true
	}
	k := f.firstFreeze(lim, p.weight)
	if p.round < 0 {
		return k < 0
	}
	return f.allFrozen && p.round == f.lastRound && k == f.lastRound
}

// firstFreeze returns the first round of the last full fill in which a
// port of weight w and maximum useful rate lim would freeze, or -1.
func (f *Fabric) firstFreeze(lim, w float64) int {
	for k, level := range f.levels {
		if lim <= w*level {
			return k
		}
	}
	return -1
}

// fill performs the two-level water-filling rate allocation over the
// active ports using iterative freezing (no sorting; the level record
// reuses its slice): in each round the tentative fair level is
// computed and every port whose maximum useful rate falls below its
// weighted share is frozen there; the remainder is split by weight.
// It records each port's freeze round and each round's level for
// keepsDecisions, and only changed or re-shared ports redistribute.
func (f *Fabric) fill(now sim.Time) {
	// Compact ports that emptied since the last recompute, preserving
	// relative order (actPorts order is the water-fill iteration order).
	kept := f.actPorts[:0]
	for _, p := range f.actPorts {
		if len(p.streams) == 0 {
			p.listed = false
			p.share = 0
			p.changed = false
			continue
		}
		kept = append(kept, p)
	}
	for i := len(kept); i < len(f.actPorts); i++ {
		f.actPorts[i] = nil
	}
	f.actPorts = kept
	totalW := 0.0
	for _, p := range f.actPorts {
		p.round = -1
		totalW += p.weight
	}
	f.levels = f.levels[:0]
	f.lastRound = -1
	frozen := 0
	remaining := f.cap
	wRem := totalW
	for wRem > 0 {
		level := remaining / wRem
		k := len(f.levels)
		f.levels = append(f.levels, level)
		froze := false
		for _, p := range f.actPorts {
			if p.round < 0 && p.maxUse <= p.weight*level {
				p.round = k
				p.share = p.maxUse
				remaining -= p.maxUse
				wRem -= p.weight
				frozen++
				froze = true
			}
		}
		if !froze {
			for _, p := range f.actPorts {
				if p.round < 0 {
					p.share = p.weight * level
				}
			}
			break
		}
		f.lastRound = k
	}
	f.allFrozen = frozen == len(f.actPorts)
	for _, p := range f.actPorts {
		p.distribute(now)
	}
}

// useLimit returns the port's maximum useful rate: its link capacity,
// or the sum of its streams' caps when every stream is capped below it.
func (p *Port) useLimit() float64 {
	max := p.cap
	if max <= 0 {
		max = math.Inf(1)
	}
	capSum := 0.0
	for _, s := range p.streams {
		if s.rateCap <= 0 {
			return max
		}
		capSum += s.rateCap
	}
	if capSum < max {
		return capSum
	}
	return max
}

// distribute water-fills the port share across its streams with the
// same iterative-freezing scheme, honoring per-stream caps and weights.
// Rates are assigned through setRate so anchors and deadlines move only
// on an actual change. The fill is a pure function of the share bits
// and the ordered stream caps and weights, so an unchanged port at a
// bitwise-equal share returns at once: every setRate would be a no-op.
func (p *Port) distribute(now sim.Time) {
	if !p.changed && math.Float64bits(p.share) == math.Float64bits(p.distShare) {
		return
	}
	p.changed = false
	p.distShare = p.share
	f := p.fab
	totalW := 0.0
	for _, s := range p.streams {
		s.frozen = false
		totalW += s.weight
	}
	remaining := p.share
	wRem := totalW
	for wRem > 0 {
		level := remaining / wRem
		froze := false
		for _, s := range p.streams {
			if s.frozen {
				continue
			}
			max := s.rateCap
			if max <= 0 {
				max = math.Inf(1)
			}
			if max <= s.weight*level {
				s.frozen = true
				f.setRate(s, max, now)
				remaining -= max
				wRem -= s.weight
				froze = true
			}
		}
		if !froze {
			for _, s := range p.streams {
				if !s.frozen {
					f.setRate(s, s.weight*level, now)
				}
			}
			break
		}
	}
}

// ActiveStreams reports the number of in-flight streams fabric-wide.
func (f *Fabric) ActiveStreams() int { return f.active }

// String implements fmt.Stringer for diagnostics.
func (f *Fabric) String() string {
	return fmt.Sprintf("fabric(cap=%.0fMB/s ports=%d active=%d)", f.cap, len(f.ports), f.active)
}
