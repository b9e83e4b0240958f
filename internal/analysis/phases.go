// Package analysis applies the ensemble methodology to IPM-I/O
// traces: slicing runs into barrier-delimited phases, computing the
// aggregate-rate time series and trace diagrams of the paper's
// figures, and diagnosing the bottleneck signatures the case studies
// isolate (node-serialized write scheduling, strided read-ahead
// pathology, serialized metadata, misalignment, writer over-
// subscription).
package analysis

import (
	"sort"

	"ensembleio/internal/ensemble"
	"ensembleio/internal/ipmio"
	"ensembleio/internal/sim"
)

// Phase is one slice of a run between consecutive phase marks.
type Phase struct {
	Name   string
	StartT sim.Time
	EndT   sim.Time
	Events []ipmio.Event
}

// Phases splits events into the intervals delimited by marks (which
// must be in time order); end closes the final phase. Events are
// assigned by start time. Events that start before the first mark are
// grouped into a synthetic "pre" phase if any exist. Each phase's
// events keep their trace order.
//
// When the trace lists its phases in order, as every simulated run
// does (barrier-delimited phases complete in turn), each phase's
// Events is a view of the trace, not a copy: it shares the trace's
// backing array, so writing an element writes the trace, but its
// capacity ends with the phase, so appending to it copies and never
// overwrites the next phase. A trace out of phase order gets copies
// in one shared, exactly sized array.
func Phases(events []ipmio.Event, marks []ipmio.PhaseMark, end sim.Time) []Phase {
	if len(marks) == 0 {
		return []Phase{{Name: "all", StartT: 0, EndT: end, Events: events[:len(events):len(events)]}}
	}
	phases, idx := phaseIndex(events, marks, end)
	var evs []ipmio.Event
	var off []int
	if ordered(idx) {
		evs, off = events, make([]int, len(phases)+1)
		for _, k := range idx {
			off[k+1]++ // events before every phase (-1) lead the trace
		}
		for k := range phases {
			off[k+1] += off[k]
		}
	} else {
		evs, off = groupBy(len(events), len(phases),
			func(i int) int32 { return idx[i] },
			func(i int) ipmio.Event { return events[i] })
	}
	for k := range phases {
		if off[k] < off[k+1] { // an empty phase keeps nil Events
			phases[k].Events = evs[off[k]:off[k+1]:off[k+1]]
		}
	}
	return phases
}

// ordered reports whether idx never decreases.
func ordered(idx []int32) bool {
	for i := 1; i < len(idx); i++ {
		if idx[i] < idx[i-1] {
			return false
		}
	}
	return true
}

// phaseIndex returns the phases delimited by marks, without events,
// and each event's phase index (-1 when it starts before every
// phase). An event belongs to the last phase starting at or before
// it: phase k ends where phase k+1 starts, so this is the first phase
// whose [StartT, EndT) holds it, the final phase being closed by end
// alone. With no marks every event is in the single phase "all".
func phaseIndex(events []ipmio.Event, marks []ipmio.PhaseMark, end sim.Time) ([]Phase, []int32) {
	idx := make([]int32, len(events))
	if len(marks) == 0 {
		return []Phase{{Name: "all", StartT: 0, EndT: end}}, idx
	}
	phases := make([]Phase, 0, len(marks)+1)
	// Collectors record in completion order, so the earliest start need
	// not be events[0].
	for _, ev := range events {
		if ev.Start < marks[0].T {
			phases = append(phases, Phase{Name: "pre", StartT: 0, EndT: marks[0].T})
			break
		}
	}
	for i, m := range marks {
		e := end
		if i+1 < len(marks) {
			e = marks[i+1].T
		}
		phases = append(phases, Phase{Name: m.Name, StartT: m.T, EndT: e})
	}
	for i, ev := range events {
		if !(ev.Start >= phases[0].StartT) {
			idx[i] = -1
			continue
		}
		k := sort.Search(len(phases), func(k int) bool { return phases[k].StartT > ev.Start })
		idx[i] = int32(k - 1)
	}
	return phases, idx
}

// Durations extracts the durations of events matching the filter (nil
// accepts all) as an ensemble dataset.
func Durations(events []ipmio.Event, filter func(ipmio.Event) bool) *ensemble.Dataset {
	n := len(events)
	if filter != nil {
		n = 0
		for _, ev := range events {
			if filter(ev) {
				n++
			}
		}
	}
	ds := make([]float64, 0, n)
	for _, ev := range events {
		if filter == nil || filter(ev) {
			ds = append(ds, float64(ev.Dur))
		}
	}
	return ensemble.NewDataset(ds)
}

// SecPerMB extracts size-normalized durations (seconds per MB) of
// sized events matching the filter — the normalization of the GCRM
// histograms, which mix record and metadata transfer sizes.
func SecPerMB(events []ipmio.Event, filter func(ipmio.Event) bool) *ensemble.Dataset {
	d := ensemble.NewDataset(nil)
	for _, ev := range events {
		if ev.Bytes <= 0 || ev.Dur <= 0 {
			continue
		}
		if filter == nil || filter(ev) {
			d.Add(float64(ev.Dur) / (float64(ev.Bytes) / 1e6))
		}
	}
	return d
}

// TraceEnd is the latest event end time in a trace, the run's wall
// clock as far as the trace alone can tell.
func TraceEnd(events []ipmio.Event) sim.Time {
	end := sim.Time(0)
	for _, e := range events {
		if e.Start+e.Dur > end {
			end = e.Start + e.Dur
		}
	}
	return end
}

// IsOp returns a filter selecting one op type.
func IsOp(op ipmio.Op) func(ipmio.Event) bool {
	return func(e ipmio.Event) bool { return e.Op == op }
}
