// Package campaign is the batch campaign runner: it takes a list of
// scenario specs (typically a duplicate-heavy what-if grid), dedups
// them against the content-addressed cache (internal/cascache), runs
// only the misses on runpool, and returns submission-order-stable
// results — every entry's artifact set, whether computed, served from
// the store, or shared with an identical earlier entry.
//
// Because every run is a pure function of its scenario key, the three
// sources are byte-identical by construction; Verify mode recomputes
// on every hit and diffs to prove it.
//
// One bad scenario never takes the campaign down: a run that fails,
// including one whose simulation panics, becomes that entry's Err (and
// its duplicates'), is never published to the store, and the rest of
// the grid completes.
package campaign

import (
	"fmt"

	"ensembleio/internal/cascache"
	"ensembleio/internal/cluster"
	"ensembleio/internal/faults"
	"ensembleio/internal/ipmio"
	"ensembleio/internal/runpool"
	"ensembleio/internal/workloads"
)

// Entry is one scenario of a campaign: the full pure-function input of
// a run. Name is display-only and never reaches the key.
type Entry struct {
	Name     string
	Spec     *workloads.Spec
	Platform cluster.Profile
	Faults   *faults.Scenario
	Seed     int64
}

// Options configures a campaign.
type Options struct {
	// Workers bounds the runpool fan-out (0 = all cores). Results are
	// identical at any value.
	Workers int
	// Store, when non-nil, serves hits and receives every computed
	// artifact set. A nil store computes everything (cold mode).
	Store *cascache.Store
	// Verify recomputes every cache hit and diffs it against the
	// served bytes — the paranoid mode behind -cache-verify.
	Verify bool
	// Progress, when non-nil, is called after each computed run.
	Progress runpool.Progress
}

// Source says where a result's artifacts came from.
type Source string

const (
	SourceRun   Source = "run"   // computed this campaign
	SourceCache Source = "cache" // served by the store
	SourceDup   Source = "dup"   // identical to an earlier entry of this campaign
)

// Result is one entry's outcome, in submission order. A failed entry
// carries Err and no artifacts.
type Result struct {
	Name      string
	Key       cascache.Key
	Meta      cascache.Meta
	Artifacts []cascache.Artifact
	Source    Source
	Err       error
}

// Stats summarizes a campaign's cache effectiveness.
type Stats struct {
	Scenarios     int    // entries submitted
	Unique        int    // distinct scenario keys
	Hits          int    // unique keys served by the store
	Misses        int    // unique keys computed (or attempted: see Failed)
	DupHits       int    // entries sharing an earlier entry's key
	Failed        int    // entries whose run failed (duplicates included)
	BytesServed   uint64 // artifact bytes delivered without compute (store hits + dups)
	BytesComputed uint64 // artifact bytes of computed runs
}

// computed is one scheduled miss's outcome.
type computed struct {
	arts []cascache.Artifact
	meta cascache.Meta
	err  error
}

// runOne executes one scenario under the capture contract — full
// trace+profile collection with telemetry on — so the resulting
// artifact set serves every later request shape. A panic anywhere in
// the run, rank bodies included, becomes the scenario's error.
func runOne(e Entry) (c computed) {
	defer func() {
		if r := recover(); r != nil {
			c = computed{err: fmt.Errorf("campaign: %s: simulation panicked: %v", e.Name, r)}
		}
	}()
	prog, err := workloads.Compile(e.Spec)
	if err != nil {
		return computed{err: fmt.Errorf("campaign: %s: %w", e.Name, err)}
	}
	run := prog.Run(workloads.RunConfig{
		Machine:   e.Platform,
		Seed:      e.Seed,
		Mode:      ipmio.TraceMode | ipmio.ProfileMode,
		Faults:    e.Faults,
		Telemetry: true,
	})
	arts, meta, err := cascache.CaptureRun(run, e.Seed)
	if err != nil {
		return computed{err: fmt.Errorf("campaign: %s: %w", e.Name, err)}
	}
	return computed{arts: arts, meta: meta}
}

// Run executes the campaign. Results are indexed like entries;
// duplicates share the first occurrence's artifact slices (no copy).
// The error reports campaign-level failures only (keying, publishing,
// a verify mismatch); a scenario whose run fails lands in its Result's
// Err and is counted in Stats.Failed.
func Run(entries []Entry, opts Options) ([]Result, Stats, error) {
	results := make([]Result, len(entries))
	stats := Stats{Scenarios: len(entries)}

	// Dedup by canonical scenario key, preserving submission order of
	// first occurrences. The map is lookup-only (never ranged), so
	// iteration order cannot reach the results.
	firstOf := make(map[cascache.Key]int, len(entries))
	var uniques []int
	for i, e := range entries {
		k, err := cascache.ScenarioKey(e.Spec, e.Platform, e.Faults, e.Seed)
		if err != nil {
			return nil, stats, fmt.Errorf("campaign: %s: %w", e.Name, err)
		}
		results[i].Name = e.Name
		results[i].Key = k
		if _, ok := firstOf[k]; ok {
			results[i].Source = SourceDup
			continue
		}
		firstOf[k] = i
		uniques = append(uniques, i)
	}
	stats.Unique = len(uniques)
	stats.DupHits = len(entries) - len(uniques)

	// Probe the store; misses (and, in Verify mode, hits too) get
	// scheduled. toRun holds entry indices, submission order.
	var toRun []int
	for _, i := range uniques {
		if opts.Store != nil {
			if ent, ok := opts.Store.Get(results[i].Key); ok {
				results[i].Source = SourceCache
				results[i].Meta = ent.Meta
				results[i].Artifacts = ent.Artifacts
				stats.Hits++
				if opts.Verify {
					toRun = append(toRun, i)
				}
				continue
			}
		}
		results[i].Source = SourceRun
		toRun = append(toRun, i)
	}

	outs := runpool.MapProgress(opts.Workers, toRun, opts.Progress, func(_ int, i int) computed {
		return runOne(entries[i])
	})
	for j, out := range outs {
		i := toRun[j]
		if results[i].Source == SourceCache {
			// Verify mode: the fresh run must succeed and reproduce the
			// served bytes.
			err := out.err
			if err == nil {
				err = cascache.DiffArtifacts(results[i].Artifacts, out.arts)
			}
			if err != nil {
				return nil, stats, fmt.Errorf("campaign: %s: cache verify failed: %w", results[i].Name, err)
			}
			continue
		}
		stats.Misses++
		if out.err != nil {
			results[i].Err = out.err
			continue
		}
		results[i].Meta = out.meta
		results[i].Artifacts = out.arts
		for _, a := range out.arts {
			stats.BytesComputed += uint64(len(a.Data))
		}
		if opts.Store != nil {
			if err := opts.Store.Put(results[i].Key, out.meta, out.arts); err != nil {
				return nil, stats, err
			}
		}
	}

	// Resolve duplicates against their first occurrence and settle the
	// served-bytes and failure accounting.
	for i := range results {
		switch results[i].Source {
		case SourceDup:
			first := results[firstOf[results[i].Key]]
			results[i].Meta = first.Meta
			results[i].Artifacts = first.Artifacts
			results[i].Err = first.Err
			for _, a := range first.Artifacts {
				stats.BytesServed += uint64(len(a.Data))
			}
		case SourceCache:
			for _, a := range results[i].Artifacts {
				stats.BytesServed += uint64(len(a.Data))
			}
		}
		if results[i].Err != nil {
			stats.Failed++
		}
	}
	return results, stats, nil
}
