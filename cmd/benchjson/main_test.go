package main

import (
	"strings"
	"testing"
)

// bl builds a baseline with one benchmark holding the given metric
// series.
func bl(name string, metrics map[string][]float64) baseline {
	return baseline{Benchmarks: map[string]map[string][]float64{name: metrics}}
}

func TestCheckRunPassesWithinSlack(t *testing.T) {
	base := bl("BenchmarkX-8", map[string][]float64{
		"ns/op": {100, 110}, "allocs/op": {1000, 1000}, "B/op": {50000, 50000},
	})
	run := bl("BenchmarkX-4", map[string][]float64{
		"ns/op": {150}, "allocs/op": {1100}, "B/op": {55000},
	})
	oks, failures, compared := checkRun(run, base, 2.0, 1.25)
	if compared != 1 {
		t.Fatalf("compared = %d, want 1", compared)
	}
	if len(failures) != 0 {
		t.Fatalf("unexpected failures: %v", failures)
	}
	if len(oks) != 1 || !strings.Contains(oks[0], "allocs/op") || !strings.Contains(oks[0], "B/op") {
		t.Fatalf("ok line should carry the alloc columns, got %v", oks)
	}
}

// TestCheckRunFlagsAllocRegression is the acceptance test for the
// memory gate: a synthetic allocs/op regression (time unchanged) must
// fail the check.
func TestCheckRunFlagsAllocRegression(t *testing.T) {
	base := bl("BenchmarkFig1_IOR512-8", map[string][]float64{
		"ns/op": {1e8}, "allocs/op": {33000}, "B/op": {4e6},
	})
	run := bl("BenchmarkFig1_IOR512-8", map[string][]float64{
		"ns/op": {1e8}, "allocs/op": {66000}, "B/op": {4e6},
	})
	_, failures, compared := checkRun(run, base, 2.0, 1.25)
	if compared != 1 {
		t.Fatalf("compared = %d, want 1", compared)
	}
	if len(failures) != 1 || !strings.Contains(failures[0], "allocs/op") {
		t.Fatalf("want exactly one allocs/op failure, got %v", failures)
	}
}

func TestCheckRunFlagsBytesRegression(t *testing.T) {
	base := bl("BenchmarkY", map[string][]float64{
		"ns/op": {100}, "allocs/op": {10}, "B/op": {1000},
	})
	run := bl("BenchmarkY", map[string][]float64{
		"ns/op": {100}, "allocs/op": {10}, "B/op": {2000},
	})
	_, failures, _ := checkRun(run, base, 2.0, 1.25)
	if len(failures) != 1 || !strings.Contains(failures[0], "B/op") {
		t.Fatalf("want exactly one B/op failure, got %v", failures)
	}
}

func TestCheckRunFlagsTimeRegression(t *testing.T) {
	base := bl("BenchmarkZ", map[string][]float64{"ns/op": {100}})
	run := bl("BenchmarkZ", map[string][]float64{"ns/op": {500}})
	_, failures, _ := checkRun(run, base, 2.0, 1.25)
	if len(failures) != 1 || !strings.Contains(failures[0], "ns/op") {
		t.Fatalf("want exactly one ns/op failure, got %v", failures)
	}
}

// TestCheckRunFlagsStaleBaseline: memory is gated from below. A row
// whose best B/op or allocs/op fell under its baseline best divided by
// memslack (the telemetry rows once read x0.58 B/op) fails as STALE
// and tells the author to re-record it; a leaner row inside the slack
// passes, and a faster ns/op is never stale.
func TestCheckRunFlagsStaleBaseline(t *testing.T) {
	base := bl("BenchmarkTelemetryDisabled-2", map[string][]float64{
		"ns/op": {1.47e7}, "allocs/op": {9000, 9100}, "B/op": {912000, 915000},
	})
	cases := []struct {
		name      string
		allocs, b float64
		want      []string // the metrics that must fail as STALE
	}{
		{"bytes x0.58", 8900, 524280, []string{"B/op"}},
		{"allocs x0.50", 4500, 900000, []string{"allocs/op"}},
		{"both", 4500, 524280, []string{"allocs/op", "B/op"}},
		{"inside the slack", 7300, 740000, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := bl("BenchmarkTelemetryDisabled-2", map[string][]float64{
				"ns/op": {5e6}, "allocs/op": {c.allocs}, "B/op": {c.b},
			})
			oks, failures, compared := checkRun(run, base, 3.0, 1.25)
			if compared != 1 {
				t.Fatalf("compared = %d, want 1", compared)
			}
			if len(failures) != len(c.want) {
				t.Fatalf("failures %v, want STALE on %v", failures, c.want)
			}
			for i, f := range failures {
				if !strings.HasPrefix(f, "STALE ") || !strings.Contains(f, " "+c.want[i]+" ") || !strings.Contains(f, "re-record") {
					t.Errorf("failure %q should report a STALE %s baseline and ask to re-record it", f, c.want[i])
				}
			}
			if c.want == nil && len(oks) != 1 {
				t.Errorf("a row inside the slack should pass, got ok lines %v", oks)
			}
		})
	}
}

// A baseline recorded without -benchmem must still gate on time and
// skip the memory metrics rather than failing or crashing.
func TestCheckRunSkipsMissingMemoryMetrics(t *testing.T) {
	base := bl("BenchmarkW", map[string][]float64{"ns/op": {100}})
	run := bl("BenchmarkW", map[string][]float64{
		"ns/op": {120}, "allocs/op": {99999}, "B/op": {9e9},
	})
	oks, failures, compared := checkRun(run, base, 2.0, 1.25)
	if compared != 1 || len(failures) != 0 {
		t.Fatalf("compared=%d failures=%v, want 1 compared and none failed", compared, failures)
	}
	if len(oks) != 1 || strings.Contains(oks[0], "allocs/op") {
		t.Fatalf("memory columns should be absent, got %v", oks)
	}
}

// The -P GOMAXPROCS suffix differs across machines; benchmarks must
// still pair up after stripping it, and disjoint sets must report zero
// comparisons.
func TestCheckRunSuffixAndOverlap(t *testing.T) {
	base := bl("BenchmarkS-16", map[string][]float64{"ns/op": {100}})
	run := bl("BenchmarkS-2", map[string][]float64{"ns/op": {100}})
	if _, _, compared := checkRun(run, base, 2.0, 1.25); compared != 1 {
		t.Fatalf("suffix-stripped names should pair up, compared = %d", compared)
	}
	other := bl("BenchmarkT", map[string][]float64{"ns/op": {100}})
	if _, _, compared := checkRun(other, base, 2.0, 1.25); compared != 0 {
		t.Fatalf("disjoint benchmarks should not compare, compared = %d", compared)
	}
}

// TestCheckRunZeroAllocBaselineIsExact: a baseline recorded at zero
// allocs/op (the cache MRU hit path) admits no slack — the first
// allocation that creeps in fails the guard, while staying at zero
// keeps passing.
func TestCheckRunZeroAllocBaselineIsExact(t *testing.T) {
	base := bl("BenchmarkCacheHitMRU", map[string][]float64{
		"ns/op": {500}, "allocs/op": {0, 0, 0}, "B/op": {0, 0, 0},
	})
	still := bl("BenchmarkCacheHitMRU", map[string][]float64{
		"ns/op": {600}, "allocs/op": {0}, "B/op": {0},
	})
	if _, failures, compared := checkRun(still, base, 3.0, 1.25); len(failures) != 0 || compared != 1 {
		t.Fatalf("zero-alloc run against zero-alloc baseline: failures %v, compared %d", failures, compared)
	}
	grew := bl("BenchmarkCacheHitMRU", map[string][]float64{
		"ns/op": {600}, "allocs/op": {2}, "B/op": {64},
	})
	_, failures, _ := checkRun(grew, base, 3.0, 1.25)
	if len(failures) != 2 {
		t.Fatalf("want allocs/op and B/op failures against allocation-free baseline, got %v", failures)
	}
	for _, f := range failures {
		if !strings.Contains(f, "allocation-free baseline") {
			t.Errorf("failure %q should name the allocation-free baseline", f)
		}
	}
}

// TestCheckRunExactCounters: the work-counter units are gated at ratio
// exactly 1.0. One event more or one fewer fails, however fast the
// run; so does a run that lacks a counter the baseline has, and one
// whose repetitions disagree; identical counters pass and show as a
// column.
func TestCheckRunExactCounters(t *testing.T) {
	counters := func(events float64) map[string][]float64 {
		return map[string][]float64{
			"ns/op": {2e9}, "events": {events, events}, "heap_hw": {10242, 10242},
			"refreshes": {406712, 406712}, "recomputes": {25068, 25068}, "write_jobs": {215040, 215040},
		}
	}
	base := bl("BenchmarkSimulatorThroughputSingle-2", counters(1553229))
	oks, failures, compared := checkRun(bl("BenchmarkSimulatorThroughputSingle-4", counters(1553229)), base, 3.0, 1.25)
	if compared != 1 || len(failures) != 0 || len(oks) != 1 || !strings.Contains(oks[0], "1553229 events =") {
		t.Fatalf("identical counters: compared=%d failures=%v oks=%v", compared, failures, oks)
	}
	for _, events := range []float64{1553230, 1553228} {
		_, failures, _ := checkRun(bl("BenchmarkSimulatorThroughputSingle-2", counters(events)), base, 3.0, 1.25)
		if len(failures) != 1 || !strings.Contains(failures[0], "events") || !strings.Contains(failures[0], "exact") {
			t.Errorf("events %v vs 1553229: want one exact-counter failure, got %v", events, failures)
		}
	}
	missing := counters(1553229)
	delete(missing, "events")
	if _, failures, _ := checkRun(bl("BenchmarkSimulatorThroughputSingle-2", missing), base, 3.0, 1.25); len(failures) != 1 || !strings.Contains(failures[0], "events counter missing") {
		t.Errorf("events absent from the run: want one counter-missing failure, got %v", failures)
	}
	split := counters(1553229)
	split["events"] = []float64{1553229, 1553230}
	if _, failures, _ := checkRun(bl("BenchmarkSimulatorThroughputSingle-2", split), base, 3.0, 1.25); len(failures) != 1 {
		t.Errorf("repetitions that disagree on events: want one failure, got %v", failures)
	}
	// The telemetry row's span count is gated the same way.
	telemetry := func(spans float64) baseline {
		return bl("BenchmarkTelemetryEnabled-2", map[string][]float64{"ns/op": {1e7}, "events": {9444}, "spans": {spans}})
	}
	if _, failures, _ := checkRun(telemetry(1284), telemetry(1283), 3.0, 1.25); len(failures) != 1 || !strings.Contains(failures[0], "spans") || !strings.Contains(failures[0], "exact") {
		t.Errorf("spans 1284 vs 1283: want one exact-counter failure, got %v", failures)
	}
}

// TestCheckRunExactCacheCounters: the cache rows' hits, misses and puts
// and the capture row's bytes are gated like the flagship counters.
func TestCheckRunExactCacheCounters(t *testing.T) {
	cache := func(hits, misses, puts float64) map[string][]float64 {
		return map[string][]float64{"ns/op": {1e7}, "hits": {hits}, "misses": {misses}, "puts": {puts}}
	}
	base := bl("BenchmarkCacheCampaignWarm100-2", cache(50, 0, 0))
	if oks, failures, _ := checkRun(bl("BenchmarkCacheCampaignWarm100-2", cache(50, 0, 0)), base, 3.0, 1.25); len(failures) != 0 || len(oks) != 1 || !strings.Contains(oks[0], "50 hits =") {
		t.Fatalf("identical cache counters: failures=%v oks=%v", failures, oks)
	}
	for _, run := range []map[string][]float64{cache(49, 1, 1), cache(50, 0, 1)} {
		if _, failures, _ := checkRun(bl("BenchmarkCacheCampaignWarm100-2", run), base, 3.0, 1.25); len(failures) == 0 {
			t.Errorf("run %v vs warm baseline: want an exact-counter failure", run)
		}
	}
	capture := bl("BenchmarkCaptureRun-2", map[string][]float64{"ns/op": {3e7}, "bytes": {5899118}})
	if _, failures, _ := checkRun(bl("BenchmarkCaptureRun-2", map[string][]float64{"ns/op": {3e7}, "bytes": {5899119}}), capture, 3.0, 1.25); len(failures) != 1 || !strings.Contains(failures[0], "bytes") {
		t.Errorf("one more captured byte: want one bytes failure, got %v", failures)
	}
}

// TestCheckRunExactAnalysisCounters: the analysis row's findings and
// events are gated exactly, so a detector that starts or stops firing
// on the guard trace fails however fast it runs.
func TestCheckRunExactAnalysisCounters(t *testing.T) {
	analysis := func(findings float64) map[string][]float64 {
		return map[string][]float64{"ns/op": {1e8, 1e8}, "events": {215681, 215681}, "findings": {findings, findings}}
	}
	base := bl("BenchmarkAnalysis_Diagnose-2", analysis(3))
	if oks, failures, _ := checkRun(bl("BenchmarkAnalysis_Diagnose-2", analysis(3)), base, 3.0, 1.25); len(failures) != 0 || len(oks) != 1 || !strings.Contains(oks[0], "3 findings =") {
		t.Fatalf("identical analysis counters: failures=%v oks=%v", failures, oks)
	}
	for _, findings := range []float64{2, 4} {
		_, failures, _ := checkRun(bl("BenchmarkAnalysis_Diagnose-2", analysis(findings)), base, 3.0, 1.25)
		if len(failures) != 1 || !strings.Contains(failures[0], "findings") || !strings.Contains(failures[0], "exact") {
			t.Errorf("findings %v vs 3: want one exact-counter failure, got %v", findings, failures)
		}
	}
}
