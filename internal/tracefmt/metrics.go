package tracefmt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"ensembleio/internal/telemetry"
)

// ---- Telemetry snapshot persistence ----
//
// A telemetry.Snapshot is already sorted by name, so the indented JSON
// written here is byte-deterministic for a given run. The reader
// validates what the simulator guarantees on output — finite values,
// non-negative counts, ordered bin edges — so downstream consumers
// (cmd/tracestat) can trust loaded snapshots.

// WriteMetrics encodes a telemetry snapshot as indented JSON.
func WriteMetrics(w io.Writer, snap *telemetry.Snapshot) error {
	if snap == nil {
		return fmt.Errorf("tracefmt: nil telemetry snapshot")
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	enc.SetIndent("", " ")
	if err := enc.Encode(snap); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadMetrics decodes and validates a telemetry snapshot.
func ReadMetrics(r io.Reader) (*telemetry.Snapshot, error) {
	var snap telemetry.Snapshot
	dec := json.NewDecoder(r)
	if err := dec.Decode(&snap); err != nil {
		return nil, fmt.Errorf("tracefmt: bad telemetry snapshot: %w", err)
	}
	for _, c := range snap.Counters {
		if err := checkMetricName(c.Name); err != nil {
			return nil, err
		}
		if !finite(c.Value) {
			return nil, fmt.Errorf("tracefmt: counter %q has non-finite value", c.Name)
		}
	}
	for _, g := range snap.Gauges {
		if err := checkMetricName(g.Name); err != nil {
			return nil, err
		}
		if !finite(g.Value) || !finite(g.Max) {
			return nil, fmt.Errorf("tracefmt: gauge %q has non-finite value", g.Name)
		}
	}
	for _, h := range snap.Hists {
		if err := checkMetricName(h.Name); err != nil {
			return nil, err
		}
		if h.Count < 0 || h.Under < 0 || h.Under > h.Count {
			return nil, fmt.Errorf("tracefmt: hist %q has bad counts (%d, %d)", h.Name, h.Count, h.Under)
		}
		if !finite(h.Sum) || !finite(h.Min) || !finite(h.Max) {
			return nil, fmt.Errorf("tracefmt: hist %q has non-finite summary", h.Name)
		}
		var binned int64
		prevHi := 0.0
		for _, b := range h.Bins {
			if !finite(b.Lo) || !finite(b.Hi) || b.Lo >= b.Hi || b.Lo < prevHi {
				return nil, fmt.Errorf("tracefmt: hist %q has bad bin [%v, %v)", h.Name, b.Lo, b.Hi)
			}
			if b.Count < 0 {
				return nil, fmt.Errorf("tracefmt: hist %q has negative bin count", h.Name)
			}
			prevHi = b.Hi
			binned += b.Count
		}
		if binned != h.Count-h.Under {
			return nil, fmt.Errorf("tracefmt: hist %q bins sum to %d, want %d", h.Name, binned, h.Count-h.Under)
		}
	}
	return &snap, nil
}

func checkMetricName(name string) error {
	if name == "" {
		return fmt.Errorf("tracefmt: metric with empty name")
	}
	if len(name) > maxStringLen {
		return fmt.Errorf("tracefmt: metric name exceeds %d bytes", maxStringLen)
	}
	return nil
}
