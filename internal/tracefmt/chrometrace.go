package tracefmt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// ---- Chrome trace-event export ----
//
// Spans render as Chrome trace-event JSON, loadable in Perfetto
// (ui.perfetto.dev) or chrome://tracing. Virtual time maps onto the
// format's microsecond timeline: a span over [Start, End) seconds of
// simulated time becomes a complete ("X") event at ts = Start*1e6.
//
// Track layout: run-scoped spans (Rank < 0 — workload phases, fault
// windows) land on pid 0 "run", one thread per category; per-rank
// spans land on pid 1 "ranks" with tid = rank, so Perfetto shows one
// lane per rank under a single process group.

// chromeEvent is one entry of the traceEvents array. Only the "X"
// (complete) and "M" (metadata) phases are emitted.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

type chromeTrace struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

const (
	chromePIDRun   = 0
	chromePIDRanks = 1
)

// runCats fixes the thread-lane order for run-scoped span categories
// on the "run" process; unknown categories share a catch-all lane
// after them. A slice, not a map, so export order is deterministic.
var runCats = []string{"phase", "fault"}

func runTID(cat string) int {
	for i, c := range runCats {
		if c == cat {
			return i
		}
	}
	return len(runCats)
}

// WriteChromeTrace renders the view's spans as a Chrome trace-event
// JSON object, laid out with a one-space indent per level. Every span
// is validated before anything is written.
func WriteChromeTrace(w io.Writer, spans SpanView) error {
	for sp := range spans.All() {
		if err := validateSpan(sp); err != nil {
			return err
		}
	}
	bw := bufio.NewWriter(w)
	var rec []byte
	sep := "{\n \"displayTimeUnit\": \"ms\",\n \"traceEvents\": [\n" // the first event opens the document
	put := func(ev chromeEvent) error {
		rec = append(rec[:0], sep...)
		sep = ",\n"
		var err error
		if rec, err = appendChromeEvent(rec, ev); err != nil {
			return err
		}
		_, err = bw.Write(rec)
		return err
	}
	events := []chromeEvent{
		{Name: "process_name", Ph: "M", PID: chromePIDRun, Args: map[string]string{"name": "run"}},
		{Name: "process_name", Ph: "M", PID: chromePIDRanks, Args: map[string]string{"name": "ranks"}},
	}
	for tid, cat := range runCats {
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", PID: chromePIDRun, TID: tid, Args: map[string]string{"name": cat},
		})
	}
	for _, ev := range events {
		if err := put(ev); err != nil {
			return err
		}
	}
	for sp := range spans.All() {
		ev := chromeEvent{
			Name: sp.Name, Cat: sp.Cat, Ph: "X",
			TS: sp.Start * 1e6, Dur: (sp.End - sp.Start) * 1e6,
		}
		if sp.Rank < 0 {
			ev.PID = chromePIDRun
			ev.TID = runTID(sp.Cat)
		} else {
			ev.PID = chromePIDRanks
			ev.TID = sp.Rank
		}
		if err := put(ev); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n ]\n}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// appendChromeEvent appends ev as one element of the traceEvents
// array, at the array's indent depth. Empty cat, zero dur and empty
// args are left out; args keys are written in sorted order.
func appendChromeEvent(b []byte, ev chromeEvent) ([]byte, error) {
	var err error
	b = append(b, "  {\n   \"name\": "...)
	b = appendString(b, ev.Name)
	if ev.Cat != "" {
		b = append(b, ",\n   \"cat\": "...)
		b = appendString(b, ev.Cat)
	}
	b = append(b, ",\n   \"ph\": "...)
	b = appendString(b, ev.Ph)
	b = append(b, ",\n   \"ts\": "...)
	if b, err = appendFloat(b, ev.TS); err != nil {
		return b, err
	}
	if ev.Dur != 0 {
		b = append(b, ",\n   \"dur\": "...)
		if b, err = appendFloat(b, ev.Dur); err != nil {
			return b, err
		}
	}
	b = append(b, ",\n   \"pid\": "...)
	b = strconv.AppendInt(b, int64(ev.PID), 10)
	b = append(b, ",\n   \"tid\": "...)
	b = strconv.AppendInt(b, int64(ev.TID), 10)
	if len(ev.Args) > 0 {
		keys := make([]string, 0, len(ev.Args))
		for k := range ev.Args {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b = append(b, ",\n   \"args\": {"...)
		for i, k := range keys {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n    "...)
			b = appendString(b, k)
			b = append(b, ": "...)
			b = appendString(b, ev.Args[k])
		}
		b = append(b, "\n   }"...)
	}
	return append(b, "\n  }"...), nil
}

// ValidateChromeTrace parses a Chrome trace-event JSON stream and
// checks it against the subset of the format WriteChromeTrace emits:
// every event has a name, phase "X" or "M", and finite non-negative
// ts/dur. Returns the number of events validated. This is the schema
// check the Makefile trace-smoke target runs over exporter output.
func ValidateChromeTrace(r io.Reader) (int, error) {
	var tr chromeTrace
	dec := json.NewDecoder(r)
	if err := dec.Decode(&tr); err != nil {
		return 0, fmt.Errorf("tracefmt: bad chrome trace: %w", err)
	}
	for i, ev := range tr.TraceEvents {
		if ev.Name == "" || len(ev.Name) > maxStringLen {
			return 0, fmt.Errorf("tracefmt: chrome event %d has bad name", i)
		}
		if ev.Ph != "X" && ev.Ph != "M" {
			return 0, fmt.Errorf("tracefmt: chrome event %d has unsupported phase %q", i, ev.Ph)
		}
		if !finite(ev.TS) || ev.TS < 0 || !finite(ev.Dur) || ev.Dur < 0 {
			return 0, fmt.Errorf("tracefmt: chrome event %d has bad ts/dur (%v, %v)", i, ev.TS, ev.Dur)
		}
	}
	return len(tr.TraceEvents), nil
}
