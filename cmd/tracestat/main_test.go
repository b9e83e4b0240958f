package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ensembleio"
	"ensembleio/internal/cascache"
	"ensembleio/internal/ipmio"
	"ensembleio/internal/tracefmt"
)

// runSpec runs a corpus workload spec with full collection and writes
// its artifact set (trace.bin, trace.jsonl, profile.json,
// telemetry.json, spans.jsonl, chrome.json) into a fresh directory.
func runSpec(t *testing.T, spec string, seed int64) (*ensembleio.Run, string) {
	t.Helper()
	s, err := ensembleio.LoadWorkload(filepath.Join("..", "..", "testdata", "scenarios", "workloads", spec))
	if err != nil {
		t.Fatal(err)
	}
	run, err := ensembleio.RunWorkload(s, ensembleio.WorkloadRunConfig{
		Machine: ensembleio.Franklin(), Seed: seed,
		Mode: ensembleio.TraceMode | ensembleio.ProfileMode, Telemetry: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	arts, _, err := cascache.CaptureRun(run, seed)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, a := range arts {
		if err := os.WriteFile(filepath.Join(dir, a.Name), a.Data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return run, dir
}

// runCLI runs tracestat with args and returns its exit status and stdout.
func runCLI(args ...string) (int, string) {
	var out bytes.Buffer
	code := run(args, &out)
	return code, out.String()
}

func writeFile(t *testing.T, dir, name, data string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSniff(t *testing.T) {
	_, dir := runSpec(t, "ior-shared.json", 1)
	cases := map[string]kind{
		cascache.ArtTraceBin:   binaryTrace,
		cascache.ArtTraceJSON:  jsonlTrace,
		cascache.ArtProfile:    profile,
		cascache.ArtTelemetry:  snapshot,
		cascache.ArtChrome:     chrome,
		cascache.ArtSpans:      unknown, // a span stream is read through -spans only
		"event-first.jsonl":    jsonlTrace,
		"rates-first.json":     profile,
		"empty-snapshot.json":  snapshot,
		"hists-only.json":      snapshot,
		"chrome-events.json":   chrome,
		"unknown-object.json":  unknown,
		"not-json.txt":         unknown,
		"array.json":           unknown,
		"empty":                unknown,
		"truncated-magic.bin":  unknown,
		"unknown-then-known.j": profile,
	}
	for name, data := range map[string]string{
		"event-first.jsonl":    `{"r":0,"op":"write","t":0.5,"d":0.1}` + "\n",
		"rates-first.json":     `{"rates":{},"durations":{}}`,
		"empty-snapshot.json":  "{}\n",
		"hists-only.json":      `{"hists":[]}`,
		"chrome-events.json":   `{"traceEvents":[]}`,
		"unknown-object.json":  `{"foo":{"counters":[]},"bar":1}`,
		"not-json.txt":         "hello\n",
		"array.json":           "[1,2]",
		"empty":                "",
		"truncated-magic.bin":  tracefmt.BinaryMagic[:3],
		"unknown-then-known.j": `{"note":[1,{"x":2}],"durations":{}}`,
	} {
		writeFile(t, dir, name, data)
	}
	for name, want := range cases {
		got, err := readFile(filepath.Join(dir, name), sniff)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if got != want {
			t.Errorf("sniff(%s) = %s, want %s", name, got, want)
		}
	}
	if _, err := readFile(filepath.Join(dir, "missing"), sniff); err == nil {
		t.Error("sniffing a missing file succeeded")
	}
}

// Every report the kinds select, and the mixes that select none.
func TestReportSelection(t *testing.T) {
	_, dir := runSpec(t, "ior-shared.json", 1)
	p := func(name string) string { return filepath.Join(dir, name) }
	log.SetOutput(io.Discard) // the usage errors
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	for _, c := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{p("trace.bin")}, 0, "access patterns:"},
		{[]string{p("trace.jsonl"), p("telemetry.json")}, 0, "access patterns:"},
		{[]string{p("trace.bin"), p("trace.jsonl")}, 0, "Wasserstein (s)"},
		{[]string{p("profile.json"), p("profile.json")}, 0, "verdict: profiles statistically indistinguishable"},
		{[]string{p("telemetry.json")}, 0, "top counters"},
		{[]string{"-spans", p("spans.jsonl")}, 0, "span time by category"},
		{[]string{p("chrome.json")}, 0, "valid Chrome trace"},
		{nil, 1, ""},
		{[]string{p("trace.bin"), p("profile.json")}, 1, ""},
		{[]string{p("telemetry.json"), p("trace.bin")}, 1, ""},
		{[]string{p("trace.bin"), p("trace.bin"), p("trace.bin")}, 1, ""},
		{[]string{p("chrome.json"), p("chrome.json")}, 1, ""},
		{[]string{p("spans.jsonl")}, 1, ""},
		{[]string{p("missing")}, 1, ""},
		{[]string{"-op", "bogus", p("trace.bin")}, 1, ""},
		{[]string{"-no-such-flag"}, 2, ""},
	} {
		code, out := runCLI(c.args...)
		if code != c.code || !strings.Contains(out, c.want) {
			t.Errorf("tracestat %v: exit %d, want %d; output contains %q: %v",
				c.args, code, c.code, c.want, strings.Contains(out, c.want))
		}
	}
}

func TestSameSeedTracesIndistinguishable(t *testing.T) {
	_, a := runSpec(t, "ior-shared.json", 7)
	_, b := runSpec(t, "ior-shared.json", 7)
	code, out := runCLI(filepath.Join(a, "trace.bin"), filepath.Join(b, "trace.bin"))
	if code != 0 || !strings.Contains(out, "verdict: ensembles statistically indistinguishable") {
		t.Fatalf("exit %d, output:\n%s", code, out)
	}
}

// shiftTrace writes a copy of run's trace with every duration tripled.
func shiftTrace(t *testing.T, run *ensembleio.Run) (*ensembleio.Run, string) {
	t.Helper()
	events := append([]ipmio.Event(nil), run.Collector.Events...)
	for i := range events {
		events[i].Dur *= 3
	}
	var buf bytes.Buffer
	if err := tracefmt.WriteBinary(&buf, events, run.Collector.Marks, &run.Collector.Files); err != nil {
		t.Fatal(err)
	}
	path := writeFile(t, t.TempDir(), "shifted.bin", buf.String())
	return &ensembleio.Run{Collector: &ipmio.Collector{Events: events}}, path
}

func TestShiftedDurationsDiffer(t *testing.T) {
	run, dir := runSpec(t, "ior-shared.json", 7)
	_, shifted := shiftTrace(t, run)
	code, out := runCLI(filepath.Join(dir, "trace.bin"), shifted)
	if code != 1 || !strings.Contains(out, "DIFFERENT") ||
		!strings.Contains(out, "verdict: ensembles DIFFER") {
		t.Fatalf("exit %d, output:\n%s", code, out)
	}
}

// The CLI's per-op verdicts are ensembleio.CompareRuns' verdicts.
func TestVerdictsMatchCompareRuns(t *testing.T) {
	runA, dirA := runSpec(t, "ior-shared.json", 7)
	runB, dirB := runSpec(t, "ior-shared.json", 8)
	runS, shifted := shiftTrace(t, runA)
	for _, c := range []struct {
		b    *ensembleio.Run
		path string
	}{{runB, filepath.Join(dirB, "trace.bin")}, {runS, shifted}} {
		_, out := runCLI(filepath.Join(dirA, "trace.bin"), c.path)
		cmp := ensembleio.CompareRuns(runA, c.b)
		if len(cmp.Ops) == 0 {
			t.Fatal("CompareRuns compared no op")
		}
		for _, oc := range cmp.Ops {
			verdict := "same distribution"
			if !oc.Same {
				verdict = "DIFFERENT"
			}
			row := fmt.Sprintf("%d  %d  %.3f", oc.NA, oc.NB, oc.KS)
			if !containsRow(out, oc.Op.String(), row, verdict) {
				t.Errorf("%s vs %s: no %s row with %q and %q in\n%s", dirA, c.path, oc.Op, row, verdict, out)
			}
		}
	}
}

// containsRow reports whether out has a table row for op containing
// every field.
func containsRow(out, op string, fields ...string) bool {
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, op+" ") {
			continue
		}
		norm := strings.Join(strings.Fields(line), "  ")
		ok := true
		for _, f := range fields {
			ok = ok && strings.Contains(norm, strings.Join(strings.Fields(f), "  "))
		}
		if ok {
			return true
		}
	}
	return false
}

// MADbench's seeks all take zero time: the analysis prints their
// moments without a histogram, and mode alignment skips to the most
// numerous op with nonzero durations.
func TestZeroDurationOps(t *testing.T) {
	_, dir := runSpec(t, "madbench.json", 1)
	trace := filepath.Join(dir, "trace.bin")
	for _, args := range [][]string{{"-op", "seek", trace}, {"-op", "seek", "-log", trace}} {
		code, out := runCLI(args...)
		if code != 0 || !strings.Contains(out, "durations: n=216") ||
			strings.Contains(out, "durations (s)") || !strings.Contains(out, "access patterns:") {
			t.Errorf("tracestat %v: exit %d, output:\n%s", args, code, out)
		}
	}
	code, out := runCLI(trace, trace)
	if code != 0 || !strings.Contains(out, "mode alignment (read):") ||
		!strings.Contains(out, "verdict: ensembles statistically indistinguishable") {
		t.Errorf("exit %d, output:\n%s", code, out)
	}
}

// Snapshots fold (counters sum, gauges keep their maximum), -tenant
// restricts the tables and spans to one tenant, and -spans adds the
// span breakdown.
func TestTopAggregatesSnapshots(t *testing.T) {
	dir := t.TempDir()
	snap := func(name string, mb, gauge float64) string {
		return writeFile(t, dir, name, fmt.Sprintf(`{"counters":[
 {"name":"sim.ff_seconds","value":5},
 {"name":"sim.virtual_seconds","value":10},
 {"name":"tenant.a.lustre.ost001.mb","value":%[1]g},
 {"name":"tenant.a.lustre.ost001.stall_s","value":2},
 {"name":"tenant.a.lustre.write_mb","value":%[1]g},
 {"name":"tenant.a.virtual_seconds","value":8},
 {"name":"tenant.b.lustre.write_mb","value":100},
 {"name":"tenant.b.virtual_seconds","value":9}],
 "gauges":[{"name":"tenant.a.sim.heap","value":%[2]g,"max":%[2]g}]}`, mb, gauge))
	}
	s1, s2 := snap("s1.json", 3, 7), snap("s2.json", 4, 5)
	spans := writeFile(t, dir, "spans.jsonl", strings.Join([]string{
		`{"cat":"tenant","name":"a","rank":-1,"start":0,"end":8}`,
		`{"cat":"phase","name":"a/write-phase-0","rank":-1,"start":0,"end":3}`,
		`{"cat":"phase","name":"b/write-phase-0","rank":-1,"start":0,"end":9}`,
		`{"cat":"tenant","name":"b","rank":-1,"start":0,"end":9}`,
	}, "\n")+"\n")

	code, out := runCLI("-top", "5", s1, s2)
	for _, want := range []string{
		"fast-forwarded 10.0 of 20.0 virtual seconds (50.0%) in 0 jumps",
		"tenant a: fast-forwarded 0.0 of 16.0",
		"tenant b: fast-forwarded 0.0 of 18.0",
		"tenant.b.lustre.write_mb", "200.00",
		"tenant.a.sim.heap",
	} {
		if code != 0 || !strings.Contains(out, want) {
			t.Errorf("fold: exit %d, output lacks %q:\n%s", code, want, out)
		}
	}

	code, out = runCLI("-tenant", "a", "-spans", spans, s1, s2)
	for _, want := range []string{
		"tenant a: fast-forwarded", "lustre.write_mb", "7.00", "sim.heap  7.00",
		"per-OST hot spots", "ost001", "span time by category (2 spans in",
		"a/write-phase-0",
	} {
		if code != 0 || !strings.Contains(out, want) {
			t.Errorf("-tenant a: exit %d, output lacks %q:\n%s", code, want, out)
		}
	}
	for _, bad := range []string{"tenant b:", "tenant.", "b/write-phase-0"} {
		if strings.Contains(out, bad) {
			t.Errorf("-tenant a: output has %q:\n%s", bad, out)
		}
	}
}

// A histogram with no positive observation carries a zero min and max;
// folding it in any order must leave the others' min and max alone.
func TestAggregateHistMinMax(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"zero": writeFile(t, dir, "zero.json", `{"hists":[{"name":"h","count":2,"under":2,"sum":0,"min":0,"max":0}]}`),
		"mid": writeFile(t, dir, "mid.json", `{"hists":[{"name":"h","count":3,"sum":3,"min":0.5,"max":2,
			"bins":[{"lo":0.1,"hi":1,"count":2},{"lo":1,"hi":10,"count":1}]}]}`),
		"low": writeFile(t, dir, "low.json", `{"hists":[{"name":"h","count":1,"sum":0.2,"min":0.1,"max":0.3,
			"bins":[{"lo":0.1,"hi":1,"count":1}]}]}`),
	}
	for _, c := range []struct {
		order          []string
		count, under   int64
		wantMin, wantM float64
	}{
		{[]string{"zero", "mid"}, 5, 2, 0.5, 2},
		{[]string{"mid", "zero"}, 5, 2, 0.5, 2},
		{[]string{"zero", "mid", "low"}, 6, 2, 0.1, 2},
		{[]string{"low", "zero", "mid"}, 6, 2, 0.1, 2},
		{[]string{"mid", "low", "zero"}, 6, 2, 0.1, 2},
		{[]string{"zero", "zero"}, 4, 4, 0, 0},
	} {
		var paths []string
		for _, name := range c.order {
			paths = append(paths, files[name])
		}
		agg, err := aggregate(paths)
		if err != nil {
			t.Fatal(err)
		}
		h := agg.Hists[0]
		if h.Count != c.count || h.Under != c.under || h.Min != c.wantMin || h.Max != c.wantM {
			t.Errorf("%v: count=%d under=%d min=%g max=%g, want %d %d %g %g",
				c.order, h.Count, h.Under, h.Min, h.Max, c.count, c.under, c.wantMin, c.wantM)
		}
	}
}
