// Command benchjson converts `go test -bench` text output (on stdin)
// into the repo's perf-baseline format: a JSON object mapping each
// benchmark to its metric name → values series (one value per -count
// repetition, in run order), plus the host context lines and the raw
// benchmark lines so benchstat can re-consume the measurement.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem -count 3 ./... | benchjson > BENCH_ensembleio.json
//	go test -run '^$' -bench <guard set> ./... | benchjson -check BENCH_ensembleio.json -slack 2.0
//
// -check compares the run on stdin against a checked-in baseline
// instead of emitting JSON: for every benchmark present in both, the
// best (minimum) ns/op of the new run must be within -slack times the
// baseline's best, and the best allocs/op and B/op within -memslack
// times theirs (memory metrics are skipped when either side was run
// without -benchmem). Memory is gated from below too: a row whose best
// allocs/op or B/op is under its baseline's best divided by -memslack
// fails as STALE, since a baseline that high would let the win erode
// unseen; the change that made the row leaner must re-record it. The
// exact work-counter units (events, heap_hw, refreshes, recomputes,
// write_jobs; the cache counters hits, misses, puts; the capture's
// bytes) admit no slack: every value on both sides must be the same
// number, and a counter the baseline has must be in the run. Exit
// status 1 on regression — the CI guard that the hot paths stay within
// noise of the baseline, that allocation wins can't silently erode,
// and that the simulated work did not change.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"ensembleio/internal/cliutil"
)

// baseline is the checked-in BENCH_ensembleio.json shape. Maps
// serialize with sorted keys, so regenerating the file produces a
// stable diff.
type baseline struct {
	// Context holds the goos/goarch/pkg/cpu lines the bench run
	// printed (pkg appears once per package with benchmarks).
	Context map[string][]string `json:"context"`
	// Benchmarks maps "BenchmarkName-P" → metric → values.
	Benchmarks map[string]map[string][]float64 `json:"benchmarks"`
	// Raw keeps the untouched benchmark lines: `benchstat
	// <(jq -r '.raw[]' BENCH_ensembleio.json) new.txt` compares a
	// fresh run against this baseline.
	Raw []string `json:"raw"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	var (
		check    = flag.String("check", "", "compare stdin against this baseline JSON instead of emitting JSON")
		slack    = flag.Float64("slack", 2.0, "with -check, allowed ns/op ratio over the baseline best")
		memSlack = flag.Float64("memslack", 1.25, "with -check, allowed allocs/op and B/op ratio over the baseline best")
		version  = flag.Bool("version", false, "print build version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(cliutil.Version())
		return
	}

	out := baseline{
		Context:    map[string][]string{},
		Benchmarks: map[string]map[string][]float64{},
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		for _, key := range []string{"goos", "goarch", "pkg", "cpu"} {
			if v, ok := strings.CutPrefix(line, key+": "); ok {
				out.Context[key] = append(out.Context[key], v)
			}
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name, iteration count, then (value, unit) pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		name := fields[0]
		m := out.Benchmarks[name]
		if m == nil {
			m = map[string][]float64{}
			out.Benchmarks[name] = m
		}
		iters, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		m["iters"] = append(m["iters"], iters)
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			m[fields[i+1]] = append(m[fields[i+1]], v)
		}
		out.Raw = append(out.Raw, line)
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	if len(out.Benchmarks) == 0 {
		log.Fatal("no benchmark lines on stdin (pipe `go test -bench` output in)")
	}

	if *check != "" {
		if err := checkAgainst(out, *check, *slack, *memSlack); err != nil {
			log.Fatal(err)
		}
		return
	}

	// Encode straight to stdout: a write error (ENOSPC on a redirected
	// baseline file) must not pass silently.
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		log.Fatal(err)
	}
}

// exactUnits are the deterministic work counters benchmarks report
// with b.ReportMetric. A run does the same work on every host, so the
// gate is ratio exactly 1.0 in both directions: more work and less
// work alike mean the simulated behaviour changed.
var exactUnits = []string{"events", "heap_hw", "refreshes", "recomputes", "write_jobs", "hits", "misses", "puts", "bytes", "findings", "spans"}

// gomaxprocsSuffix strips the trailing -P parallelism tag go test
// appends to benchmark names; baselines recorded on another machine
// carry a different suffix for the same benchmark.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// checkAgainst compares the parsed run against the baseline file and
// prints the per-benchmark report. Exit is via the returned error: nil
// means every overlapping benchmark passed every gated metric.
func checkAgainst(run baseline, path string, slack, memSlack float64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	oks, failures, compared := checkRun(run, base, slack, memSlack)
	for _, line := range oks {
		fmt.Println(line)
	}
	if compared == 0 {
		return fmt.Errorf("no overlapping benchmarks between stdin and %s", path)
	}
	if len(failures) > 0 {
		return fmt.Errorf("perf regression against %s:\n  %s", path, strings.Join(failures, "\n  "))
	}
	fmt.Printf("%d benchmark(s) within x%.2f ns/op, x%.2f allocs/op+B/op of baseline (and above x%.2f), work counters exact\n", compared, slack, memSlack, 1/memSlack)
	return nil
}

// checkRun compares the run against the baseline: for every benchmark
// present in both, the new best (minimum) value of each gated metric
// must not exceed its slack times the baseline best — ns/op gated by
// slack, allocs/op and B/op gated by memSlack. Comparing minima
// (benchstat's summary of repetitions) filters scheduler noise; the
// generous time slack means only gross regressions — an accidentally-
// hot disabled path — trip the guard, while the tighter memory slack
// catches eroding allocation wins (allocs/op is nearly deterministic).
// The memory metrics are also gated from below: a best under the
// baseline best divided by memSlack is STALE, a baseline the row no
// longer resembles, which must be re-recorded. The exactUnits work
// counters must match the baseline exactly, and one the baseline has
// but the run lacks is a failure.
// Metrics absent on either side (e.g. a baseline recorded without
// -benchmem) are skipped. Returns the ok report lines (one per passing
// benchmark, with a column per compared metric), the failure lines,
// and the number of benchmarks compared on at least one metric.
func checkRun(run, base baseline, slack, memSlack float64) (oks, failures []string, compared int) {
	gates := []struct {
		metric string
		slack  float64
	}{
		{"ns/op", slack},
		{"allocs/op", memSlack},
		{"B/op", memSlack},
	}
	baseBest := map[string]map[string][]float64{}
	for name, metrics := range base.Benchmarks {
		baseBest[gomaxprocsSuffix.ReplaceAllString(name, "")] = metrics
	}
	names := make([]string, 0, len(run.Benchmarks))
	for name := range run.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		short := gomaxprocsSuffix.ReplaceAllString(name, "")
		bm, ok := baseBest[short]
		if !ok {
			continue
		}
		var cols []string
		failed := false
		for _, g := range gates {
			bv, okBase := best(bm[g.metric])
			nv, okRun := best(run.Benchmarks[name][g.metric])
			if !okBase || !okRun {
				continue
			}
			if bv <= 0 {
				// A ratio against zero is meaningless for time, but a
				// zero memory baseline is the strongest gate there is:
				// the path was allocation-free when recorded, so any
				// allocation at all is a regression.
				if g.metric == "ns/op" || nv <= 0 {
					continue
				}
				failed = true
				cols = append(cols, fmt.Sprintf("%.0f %s", nv, g.metric))
				failures = append(failures,
					fmt.Sprintf("%s: %.0f %s vs allocation-free baseline 0",
						short, nv, g.metric))
				continue
			}
			ratio := nv / bv
			cols = append(cols, fmt.Sprintf("%.0f %s x%.2f", nv, g.metric, ratio))
			switch {
			case nv > g.slack*bv:
				failed = true
				failures = append(failures,
					fmt.Sprintf("%s: %.0f %s vs baseline %.0f (x%.2f > allowed x%.2f)",
						short, nv, g.metric, bv, ratio, g.slack))
			case g.metric != "ns/op" && nv*g.slack < bv:
				failed = true
				failures = append(failures,
					fmt.Sprintf("STALE %s: %.0f %s vs baseline %.0f (x%.2f < x%.2f): re-record this row in the baseline",
						short, nv, g.metric, bv, ratio, 1/g.slack))
			}
		}
		for _, unit := range exactUnits {
			bvs, nvs := bm[unit], run.Benchmarks[name][unit]
			if bvs == nil {
				continue
			}
			if nvs == nil {
				failed = true
				failures = append(failures,
					fmt.Sprintf("%s: %s counter missing (baseline %s)", short, unit, values(bvs)))
				continue
			}
			bv, okBase := constant(bvs)
			nv, okRun := constant(nvs)
			if !okBase || !okRun || nv != bv {
				failed = true
				failures = append(failures,
					fmt.Sprintf("%s: %s %s vs baseline %s (exact counter, must match)", short, unit, values(nvs), values(bvs)))
				continue
			}
			cols = append(cols, fmt.Sprintf("%.0f %s =", nv, unit))
		}
		if len(cols) == 0 && !failed {
			continue
		}
		compared++
		if !failed {
			oks = append(oks, fmt.Sprintf("ok  %s: %s", short, strings.Join(cols, ", ")))
		}
	}
	return oks, failures, compared
}

// constant returns the one value every element of vs shares; false if
// vs is empty or its values differ.
func constant(vs []float64) (float64, bool) {
	if len(vs) == 0 {
		return 0, false
	}
	for _, v := range vs[1:] {
		if v != vs[0] {
			return 0, false
		}
	}
	return vs[0], true
}

// values renders a counter series in full, without exponents.
func values(vs []float64) string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strings.Join(out, ",")
}

// best returns the minimum of vs (the least-noise repetition).
func best(vs []float64) (float64, bool) {
	if len(vs) == 0 {
		return 0, false
	}
	m := vs[0]
	for _, v := range vs[1:] {
		if v < m {
			m = v
		}
	}
	return m, true
}
