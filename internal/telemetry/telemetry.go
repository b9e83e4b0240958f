// Package telemetry is the run-scoped, deterministic observability
// sink: counters, gauges and log-binned histograms over *virtual* time,
// plus run-scoped spans, all snapshotted into a run's output.
//
// Two invariants govern the design:
//
//   - Everything recorded here must be a pure function of the simulated
//     run. The package never reads the wall clock or any other ambient
//     state (enforced statically by ensemblelint's telwall analyzer),
//     so a snapshot is byte-identical across repeats, GOMAXPROCS and
//     runpool worker counts. Wall-clock self-observability (progress
//     bars, pprof profiles) lives in runpool and the CLIs, and never
//     enters serialized output.
//
//   - A disabled sink costs ~zero. A nil *Sink is the disabled sink:
//     every method on *Sink and on the handle types (*Counter, *Gauge,
//     *Hist) is nil-receiver safe, so instrumented hot paths pay one
//     nil-check branch and no allocation when telemetry is off.
//
// Handles returned by Counter/Gauge/Hist are stable for the life of the
// sink (registration is idempotent by name); hot paths should look
// them up once at construction time and hold the pointer.
package telemetry

import (
	"math"
	"sort"
)

// Sink collects one run's telemetry. The zero value is not usable;
// construct with New. A nil *Sink is the disabled sink: every method
// no-ops (and handle lookups return nil handles, whose methods also
// no-op).
//
// Sink is not safe for concurrent use — like the collector it sits
// beside, it relies on the simulation runtime's lock-step schedule
// (one process executes at a time). One run, one engine, one sink.
type Sink struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Hist
	spans    []Span
}

// New returns an empty, enabled sink.
func New() *Sink {
	return &Sink{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Hist),
	}
}

// Counter returns the named counter handle, registering it on first
// use. Returns nil (a valid, no-op handle) on a nil sink.
func (s *Sink) Counter(name string) *Counter {
	if s == nil {
		return nil
	}
	c := s.counters[name]
	if c == nil {
		c = &Counter{name: name}
		s.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge handle, registering it on first use.
func (s *Sink) Gauge(name string) *Gauge {
	if s == nil {
		return nil
	}
	g := s.gauges[name]
	if g == nil {
		g = &Gauge{name: name}
		s.gauges[name] = g
	}
	return g
}

// Hist returns the named log-binned histogram handle, registering it
// on first use.
func (s *Sink) Hist(name string) *Hist {
	if s == nil {
		return nil
	}
	h := s.hists[name]
	if h == nil {
		h = &Hist{name: name, counts: make(map[int]int64), min: math.Inf(1), max: math.Inf(-1)}
		s.hists[name] = h
	}
	return h
}

// Counter is a monotonically growing sum. The nil handle no-ops.
type Counter struct {
	name string
	v    float64
}

// Add folds delta into the counter.
func (c *Counter) Add(delta float64) {
	if c == nil {
		return
	}
	c.v += delta
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current sum (0 on the nil handle).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a last-value-wins sample that also tracks its high-water
// mark. The nil handle no-ops.
type Gauge struct {
	name   string
	v, max float64
	set    bool
}

// Set records the gauge's current value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v = v
	if !g.set || v > g.max {
		g.max = v
	}
	g.set = true
}

// histPerDecade is the fixed log-binning resolution: 4 bins per decade
// of the observed value, enough to separate e.g. a 10 ms metadata op
// from a 30 ms one without per-histogram configuration.
const histPerDecade = 4

// Hist is a log-binned histogram with fixed power-of-ten binning.
// Observations at or below zero (and non-finite ones) land in a
// separate underflow count so the log bins stay well defined. The nil
// handle no-ops.
type Hist struct {
	name     string
	counts   map[int]int64 // bin index -> count; index = floor(log10(v)*perDecade)
	n, under int64
	sum      float64
	min, max float64
}

// Observe folds one observation into the histogram.
func (h *Hist) Observe(v float64) {
	if h == nil {
		return
	}
	h.n++
	if v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) {
		h.under++
		return
	}
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.counts[int(math.Floor(math.Log10(v)*histPerDecade))]++
}

// Span is one closed interval of virtual time attributed to a
// category ("tenant", "phase", "fault", "io"), a name, and optionally
// a rank (Rank < 0 for run-scoped spans such as phases and fault
// windows). The sink records only run-scoped spans; io spans are
// rendered from the trace (tracefmt.SpanView).
type Span struct {
	Cat   string  `json:"cat"`
	Name  string  `json:"name"`
	Rank  int     `json:"rank"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`
}

// Span records an already-closed interval.
func (s *Sink) Span(cat, name string, rank int, start, end float64) {
	if s == nil {
		return
	}
	s.spans = append(s.spans, Span{Cat: cat, Name: name, Rank: rank, Start: start, End: end})
}

// Spans returns the recorded spans in recording order (the
// deterministic order instrumentation emitted them).
func (s *Sink) Spans() []Span {
	if s == nil {
		return nil
	}
	return append([]Span(nil), s.spans...)
}

// Snapshot is the serializable form of a sink's metrics. Every section
// is sorted by name, so encoding a snapshot is deterministic.
type Snapshot struct {
	Counters []CounterSnap `json:"counters,omitempty"`
	Gauges   []GaugeSnap   `json:"gauges,omitempty"`
	Hists    []HistSnap    `json:"hists,omitempty"`
}

// CounterSnap is one counter's final value.
type CounterSnap struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// GaugeSnap is one gauge's final value and high-water mark.
type GaugeSnap struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Max   float64 `json:"max"`
}

// HistSnap is one histogram's summary plus its non-empty bins in
// ascending value order.
type HistSnap struct {
	Name  string    `json:"name"`
	Count int64     `json:"count"`
	Under int64     `json:"under,omitempty"`
	Sum   float64   `json:"sum"`
	Min   float64   `json:"min"`
	Max   float64   `json:"max"`
	Bins  []BinSnap `json:"bins,omitempty"`
}

// Mean returns the histogram's mean positive observation.
func (h HistSnap) Mean() float64 {
	pos := h.Count - h.Under
	if pos <= 0 {
		return 0
	}
	return h.Sum / float64(pos)
}

// BinSnap is one histogram bin [Lo, Hi) and its count.
type BinSnap struct {
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
	Count int64   `json:"count"`
}

// Snapshot freezes the sink's metrics into their serializable form.
// Returns nil on a nil sink.
func (s *Sink) Snapshot() *Snapshot {
	if s == nil {
		return nil
	}
	snap := &Snapshot{}
	for name, c := range s.counters {
		snap.Counters = append(snap.Counters, CounterSnap{Name: name, Value: c.v})
	}
	sort.Slice(snap.Counters, func(i, j int) bool { return snap.Counters[i].Name < snap.Counters[j].Name })
	for name, g := range s.gauges {
		snap.Gauges = append(snap.Gauges, GaugeSnap{Name: name, Value: g.v, Max: g.max})
	}
	sort.Slice(snap.Gauges, func(i, j int) bool { return snap.Gauges[i].Name < snap.Gauges[j].Name })
	for name, h := range s.hists {
		hs := HistSnap{Name: name, Count: h.n, Under: h.under, Sum: h.sum}
		if h.n > h.under {
			hs.Min, hs.Max = h.min, h.max
		}
		idx := make([]int, 0, len(h.counts))
		for i := range h.counts {
			//lint:allow(maporder) collected keys are sort.Ints-ed on the next line
			idx = append(idx, i)
		}
		sort.Ints(idx)
		for _, i := range idx {
			hs.Bins = append(hs.Bins, BinSnap{
				Lo:    math.Pow(10, float64(i)/histPerDecade),
				Hi:    math.Pow(10, float64(i+1)/histPerDecade),
				Count: h.counts[i],
			})
		}
		snap.Hists = append(snap.Hists, hs)
	}
	sort.Slice(snap.Hists, func(i, j int) bool { return snap.Hists[i].Name < snap.Hists[j].Name })
	return snap
}

// Counter returns the named counter's snapshot value, or 0.
func (s *Snapshot) Counter(name string) float64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}
