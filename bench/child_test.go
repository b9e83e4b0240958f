package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain doubles as a stand-in workload child: with BENCH_TEST_CHILD
// set, the test binary speaks the child protocol instead of running
// tests.
func TestMain(m *testing.M) {
	if mode := os.Getenv("BENCH_TEST_CHILD"); mode != "" {
		helperChild(mode == "panic")
	}
	os.Exit(m.Run())
}

// helperChild completes one pass of three operations, then either
// panics on another goroutine midway through a second pass — the way a
// failing simulated rank takes a process down — or sends its record.
func helperChild(crash bool) {
	em := emitter{json.NewEncoder(os.Stdout)}
	em.emit(event{Begin: 3})
	em.emit(event{End: 3})
	if crash {
		em.emit(event{Begin: 3})
		fmt.Fprintln(os.Stderr, "helper: second pass started")
		block := make(chan struct{})
		go func() { panic("rank body failed") }()
		<-block
	}
	em.emit(event{Record: &record{Workload: "helper", Attempted: 3, Metrics: map[string]metricValue{"setup_s": {Value: 1, Unit: "s"}}}})
	os.Exit(0)
}

// helperSpawn starts this test binary as a stand-in child; crash names
// the workload whose child panics.
func helperSpawn(crash string) spawnFunc {
	return func(ctx context.Context, name string, _ runConfig) *exec.Cmd {
		mode := "ok"
		if name == crash {
			mode = "panic"
		}
		cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), "BENCH_TEST_CHILD="+mode)
		return cmd
	}
}

func TestChildPanicFailsItsRemainingOperations(t *testing.T) {
	rep := runChild(helperSpawn("x")(context.Background(), "x", runConfig{}))
	if rep.rec != nil || rep.err == nil {
		t.Fatalf("crashed child reported record %v, error %v", rep.rec, rep.err)
	}
	if rep.attempted != 6 || rep.failed != 3 {
		t.Fatalf("attempted %d, failed %d; want 6 and 3 (the unfinished pass)", rep.attempted, rep.failed)
	}
	if !strings.Contains(rep.stderrTail, "rank body failed") {
		t.Fatalf("stderr tail lacks the panic:\n%s", rep.stderrTail)
	}
}

func TestSuiteReportsTheOtherWorkloadsAfterAChildDies(t *testing.T) {
	crash := allWorkloads[1].name
	c := runConfig{seed: 1, seconds: 1, outDir: t.TempDir()}
	if status := runSuite(c, helperSpawn(crash)); status != 1 {
		t.Fatalf("suite status %d with a crashed child, want 1", status)
	}
	data, err := os.ReadFile(filepath.Join(c.outDir, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	var res results
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	for _, w := range allWorkloads {
		r := res.Workloads[w.name]
		switch {
		case r == nil:
			t.Errorf("%s: missing from results", w.name)
		case w.name == crash && (r.Failed != 3 || r.Attempted != 6 || r.Metrics != nil):
			t.Errorf("%s (crashed): %+v, want 3 of 6 failed and no metrics", w.name, r)
		case w.name != crash && (r.Failed != 0 || r.Metrics["setup_s"].Value != 1):
			t.Errorf("%s: %+v, want its record", w.name, r)
		}
	}
}

func TestTailBufferKeepsTheEnd(t *testing.T) {
	tb := &tailBuffer{max: 4}
	for _, s := range []string{"ab", "cdef", "g"} {
		if _, err := tb.Write([]byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	if got := tb.String(); got != "defg" {
		t.Fatalf("tail %q, want %q", got, "defg")
	}
}
