package tracefmt_test

// The fuzz corpus under testdata/fuzz/FuzzTraceDecode is seeded with
// real traces from faulted simulations — one per fault type — so the
// fuzzer mutates from inputs that exercise the encoder paths a
// pathological run actually produces (stall-stretched durations,
// interleaved marks, per-process path tables) rather than only the
// tiny hand-written seeds in fuzz_test.go. Regenerate after a trace
// format change with
//
//	go test -run TestFaultCorpus ./internal/tracefmt -updatecorpus
//
// This lives in an external test package so it can drive the root
// facade (which itself depends on tracefmt) without an import cycle.

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ensembleio"
	"ensembleio/internal/tracefmt"
)

var updateCorpus = flag.Bool("updatecorpus", false, "regenerate the fault-scenario fuzz corpus under testdata/fuzz")

// faultCorpusCases: one small faulted IOR run per fault type. Sizes
// are deliberately tiny — the corpus wants structural variety, not
// statistical fidelity.
func faultCorpusCases() map[string]ensembleio.Fault {
	return map[string]ensembleio.Fault{
		"fault-slow-ost":    &ensembleio.SlowOST{OST: 3, Factor: 0.05},
		"fault-flaky-ost":   &ensembleio.FlakyOST{OST: 1, StartSec: 0.5, PeriodSec: 2, StallSec: 0.8},
		"fault-slow-node":   &ensembleio.SlowNodeLink{Node: 1, Factor: 0.1},
		"fault-brownout":    &ensembleio.MDSBrownout{Concurrency: 2, SlowProb: 0.3, SlowLoSec: 0.1, SlowHiSec: 0.5},
		"fault-bg-bursts":   &ensembleio.BackgroundBursts{MBps: 12000, OnSec: 1, OffSec: 1},
		"fault-combo-clean": nil, // a clean run of the same shape, for contrast
	}
}

func faultCorpusRun(f ensembleio.Fault) *ensembleio.Run {
	cfg := ensembleio.IORConfig{
		Machine:        ensembleio.Franklin(),
		Tasks:          8,
		BlockBytes:     8e6,
		TransferBytes:  4e6,
		Reps:           2,
		FilePerProcess: true,
		StripeCount:    1,
		Seed:           21,
	}
	if f != nil {
		cfg.Faults = &ensembleio.Scenario{Faults: []ensembleio.Fault{f}}
	}
	return ensembleio.RunIOR(cfg)
}

func corpusDir(target string) string {
	return filepath.Join("testdata", "fuzz", target)
}

// writeCorpusEntry writes data as a Go fuzz-corpus file ("go test
// fuzz v1" header plus a quoted []byte literal).
func writeCorpusEntry(t *testing.T, dir, name string, data []byte) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
	if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

// readCorpusEntry parses a corpus file back into the raw seed bytes.
func readCorpusEntry(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing corpus entry %s — run `go test -run TestFaultCorpus ./internal/tracefmt -updatecorpus` (%v)", path, err)
	}
	lines := strings.SplitN(string(raw), "\n", 3)
	if len(lines) < 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a go fuzz v1 corpus file", path)
	}
	lit := strings.TrimSuffix(strings.TrimSpace(lines[1]), ")")
	lit = strings.TrimPrefix(lit, "[]byte(")
	s, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatalf("%s: unquoting corpus literal: %v", path, err)
	}
	return []byte(s)
}

// TestFaultCorpus regenerates (with -updatecorpus) or validates the
// checked-in fault-trace corpus: every entry must decode as a binary
// (or JSONL) trace with events and phase marks present.
func TestFaultCorpus(t *testing.T) {
	binDir := corpusDir("FuzzTraceDecode")
	jsonlDir := corpusDir("FuzzTraceDecodeJSONL")

	if *updateCorpus {
		for name, f := range faultCorpusCases() {
			run := faultCorpusRun(f)
			var bin bytes.Buffer
			if err := tracefmt.WriteBinary(&bin, run.Collector.Events, run.Collector.Marks, &run.Collector.Files); err != nil {
				t.Fatal(err)
			}
			writeCorpusEntry(t, binDir, name, bin.Bytes())
			t.Logf("wrote %s (%d events, %d bytes)", filepath.Join(binDir, name), len(run.Collector.Events), bin.Len())
		}
		// One JSONL seed is enough for the text decoder: the slow-OST
		// trace, whose stretched durations exercise float formatting.
		run := faultCorpusRun(&ensembleio.SlowOST{OST: 3, Factor: 0.05})
		var jl bytes.Buffer
		if err := tracefmt.WriteJSONL(&jl, run.Collector.Events, run.Collector.Marks, &run.Collector.Files); err != nil {
			t.Fatal(err)
		}
		writeCorpusEntry(t, jsonlDir, "fault-slow-ost", jl.Bytes())
		return
	}

	for name := range faultCorpusCases() {
		data := readCorpusEntry(t, filepath.Join(binDir, name))
		events, marks, _, err := tracefmt.ReadBinary(bytes.NewReader(data))
		if err != nil {
			t.Errorf("%s: corpus trace no longer decodes: %v", name, err)
			continue
		}
		if len(events) == 0 || len(marks) == 0 {
			t.Errorf("%s: corpus trace decoded to %d events, %d marks — want both non-empty", name, len(events), len(marks))
		}
	}
	data := readCorpusEntry(t, filepath.Join(jsonlDir, "fault-slow-ost"))
	events, marks, _, err := tracefmt.ReadJSONL(bytes.NewReader(data))
	if err != nil {
		t.Errorf("JSONL corpus trace no longer decodes: %v", err)
	} else if len(events) == 0 || len(marks) == 0 {
		t.Errorf("JSONL corpus trace decoded to %d events, %d marks — want both non-empty", len(events), len(marks))
	}
}
