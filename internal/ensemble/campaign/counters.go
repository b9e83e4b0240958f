package campaign

import "ensembleio/internal/telemetry"

// CounterPrefix names the cache-effectiveness counter family. The
// counters ride the standard telemetry snapshot format, so
// ensembletop renders them with the same machinery as a run's engine
// counters (and its per-OST table knows to skip the family).
const CounterPrefix = "cascache."

// Snapshot exports the campaign stats as a telemetry counter
// snapshot, names pre-sorted as the format requires.
func (s Stats) Snapshot() *telemetry.Snapshot {
	return &telemetry.Snapshot{Counters: []telemetry.CounterSnap{
		{Name: CounterPrefix + "bytes_computed", Value: float64(s.BytesComputed)},
		{Name: CounterPrefix + "bytes_served", Value: float64(s.BytesServed)},
		{Name: CounterPrefix + "dup_hits", Value: float64(s.DupHits)},
		{Name: CounterPrefix + "failed", Value: float64(s.Failed)},
		{Name: CounterPrefix + "hits", Value: float64(s.Hits)},
		{Name: CounterPrefix + "misses", Value: float64(s.Misses)},
		{Name: CounterPrefix + "scenarios", Value: float64(s.Scenarios)},
		{Name: CounterPrefix + "unique", Value: float64(s.Unique)},
	}}
}
