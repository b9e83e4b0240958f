package tracefmt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"ensembleio/internal/telemetry"
)

// ---- Compact span JSONL ----
//
// One span per line, the same wire shape as telemetry.Span. Like the
// event decoder, the reader is hardened against hostile input: bounded
// string lengths, finite times, End >= Start.

// WriteSpans encodes spans as one JSON object per line, in order. A
// span ReadSpans would reject is an error, so a written stream always
// reads back.
func WriteSpans(w io.Writer, spans []telemetry.Span) error {
	bw := bufio.NewWriter(w)
	var rec []byte
	var err error
	for _, sp := range spans {
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
