package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"os"
	"slices"
	"sync"
	"time"

	"ensembleio/internal/workloads"
)

// tracer collects what a traced pass measures: wall-clock spans the
// benchmark records around its own calls into each layer, exact work
// counters, and the time runpool jobs spent busy. Every method is a
// no-op on a nil *tracer, so untraced passes run the same code.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	spans    []span
	counters map[string]float64
	busy     time.Duration
}

// span is one timed call. Spans of one scenario share its Key; Parent
// is the enclosing span's ID (0 for none).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Key    string  `json:"key"`
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counters: map[string]float64{}}
}

func (t *tracer) begin(parent int, name, key string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Key: key, StartS: now, EndS: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndS = now
}

func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counters[name] += v
}

func (t *tracer) addBusy(d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.busy += d
}

// telemetryCounters are the Run.Telemetry counters reported per layer.
var telemetryCounters = []string{
	"sim.events_popped", "sim.ff_jumps", "flownet.refreshes", "flownet.recomputes",
	"lustre.write_jobs", "lustre.read_calls", "lustre.conflicts", "lustre.mds_ops", "mpi.barriers",
}

// addRun folds one simulated run's work counters: its telemetry
// snapshot (the run must have had Telemetry on) and its trace length.
func (t *tracer) addRun(run *workloads.Run) {
	if t == nil {
		return
	}
	for _, name := range telemetryCounters {
		t.count(name, run.Telemetry.Counter(name))
	}
	for _, g := range run.Telemetry.Gauges {
		if g.Name == "sim.heap_high_water" {
			t.count(g.Name, g.Value)
		}
	}
	t.count("ipmio.events", float64(len(run.Collector.Events)))
}

// spanTotals sums span durations by name.
func (t *tracer) spanTotals() map[string]float64 {
	out := map[string]float64{}
	for _, s := range t.spans {
		out[s.Name] += s.EndS - s.StartS
	}
	return out
}

// covered is the time during which at least one span named in names
// was open: the length of the union of their intervals.
func (t *tracer) covered(names []string) float64 {
	var iv [][2]float64
	for _, s := range t.spans {
		if slices.Contains(names, s.Name) {
			iv = append(iv, [2]float64{s.StartS, s.EndS})
		}
	}
	slices.SortFunc(iv, func(a, b [2]float64) int { return cmp.Compare(a[0], b[0]) })
	var total, end float64
	for _, x := range iv {
		start := max(x[0], end)
		if x[1] > start {
			total += x[1] - start
			end = x[1]
		}
	}
	return total
}

func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
