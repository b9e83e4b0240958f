package tracefmt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"iter"
	"math"
	"strconv"

	"ensembleio/internal/ipmio"
	"ensembleio/internal/telemetry"
)

// SpanView is a run's span stream as the writers see it: the
// run-scoped spans (tenant, phase and fault windows) as recorded, then
// one "io" span per call of each job's I/O track, rendered from the
// trace when written. A track aliases its collector's Events, so once
// a run is folded nothing may reorder, truncate or rewrite them.
type SpanView struct {
	Scoped []telemetry.Span
	IO     []IOTrack
}

// IOTrack is one job's traced calls and the tag that prefixes their
// span names: "" for a solo run, "<name>/" for a tenant.
type IOTrack struct {
	Tag    string
	Events []ipmio.Event
}

// Len is the number of spans the view renders.
func (v SpanView) Len() int {
	n := len(v.Scoped)
	for _, t := range v.IO {
		n += len(t.Events)
	}
	return n
}

// All yields every span of the view in write order. An event becomes
// the io span named tag+op over [Start, Start+Dur] on its rank.
func (v SpanView) All() iter.Seq[telemetry.Span] {
	return func(yield func(telemetry.Span) bool) {
		for _, sp := range v.Scoped {
			if !yield(sp) {
				return
			}
		}
		for _, t := range v.IO {
			var names [256]string // tag+op, concatenated once per op and track
			for i := range t.Events {
				e := &t.Events[i]
				if names[e.Op] == "" {
					names[e.Op] = t.Tag + e.Op.String()
				}
				if !yield(telemetry.Span{Cat: "io", Name: names[e.Op], Rank: e.Rank, Start: float64(e.Start), End: float64(e.Start + e.Dur)}) {
					return
				}
			}
		}
	}
}

// ---- Compact span JSONL ----
//
// One span per line, the same wire shape as telemetry.Span. Like the
// event decoder, the reader is hardened against hostile input: bounded
// string lengths, finite times, End >= Start.

// WriteSpans encodes the view's spans as one JSON object per line, in
// order. A span ReadSpans would reject is an error, so a written stream
// always reads back.
func WriteSpans(w io.Writer, spans SpanView) error {
	bw := bufio.NewWriter(w)
	var rec []byte
	var err error
	for sp := range spans.All() {
		if err := validateSpan(sp); err != nil {
			return err
		}
		rec = append(rec[:0], `{"cat":`...)
		rec = appendString(rec, sp.Cat)
		rec = append(rec, `,"name":`...)
		rec = appendString(rec, sp.Name)
		rec = append(rec, `,"rank":`...)
		rec = strconv.AppendInt(rec, int64(sp.Rank), 10)
		rec = append(rec, `,"start":`...)
		if rec, err = appendFloat(rec, sp.Start); err != nil {
			return err
		}
		rec = append(rec, `,"end":`...)
		if rec, err = appendFloat(rec, sp.End); err != nil {
			return err
		}
		rec = append(rec, "}\n"...)
		if _, err := bw.Write(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSpans decodes a span JSONL stream, validating each record.
func ReadSpans(r io.Reader) ([]telemetry.Span, error) {
	var spans []telemetry.Span
	dec := json.NewDecoder(r)
	for {
		var sp telemetry.Span
		if err := dec.Decode(&sp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("tracefmt: bad span record: %w", err)
		}
		if err := validateSpan(sp); err != nil {
			return nil, err
		}
		spans = append(spans, sp)
	}
	return spans, nil
}

func validateSpan(sp telemetry.Span) error {
	if len(sp.Cat) > maxStringLen || len(sp.Name) > maxStringLen {
		return fmt.Errorf("tracefmt: span string exceeds %d bytes", maxStringLen)
	}
	if sp.Name == "" {
		return fmt.Errorf("tracefmt: span with empty name")
	}
	if !finite(sp.Start) || !finite(sp.End) {
		return fmt.Errorf("tracefmt: span %q has non-finite time", sp.Name)
	}
	if sp.End < sp.Start {
		return fmt.Errorf("tracefmt: span %q ends (%v) before it starts (%v)", sp.Name, sp.End, sp.Start)
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
