package ensembleio

// Golden pinning for the workload DSL. The internal wldsl tests prove
// the IOR/MADbench/GCRM spec builders emit exactly their corpus ports;
// these goldens pin every serialized artifact of the corpus across
// time, so an engine or interpreter change that shifts any byte of
// any encoding — trace, profile, telemetry, spans, Chrome export —
// fails loudly, for the corpus and the typed paper runners alike. Golden files store sizes and SHA-256 digests (the
// full artifacts would dwarf the repo); regenerate with:
//
//	go test -run TestWorkloadDSLGolden -update .

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// goldenWorkload is one pinned run: the spec file, its runtime knobs,
// and the digest of every artifact it serializes.
type goldenWorkload struct {
	Spec      string `json:"spec"`
	Machine   string `json:"machine"`
	Seed      int64  `json:"seed"`
	Faults    string `json:"faults,omitempty"`
	Telemetry bool   `json:"telemetry,omitempty"`

	Wall      string                  `json:"wall"`
	Events    int                     `json:"events"`
	Marks     int                     `json:"marks"`
	Artifacts map[string]goldenDigest `json:"artifacts"`
}

type goldenDigest struct {
	Bytes  int    `json:"bytes"`
	SHA256 string `json:"sha256"`
}

func goldenWorkloadCases() []goldenWorkload {
	const flaky = "testdata/scenarios/flaky-ost.json"
	cases := []goldenWorkload{
		{Spec: "ior-shared", Machine: "franklin", Seed: 7},
		{Spec: "ior-shared", Machine: "franklin", Seed: 7, Faults: flaky, Telemetry: true},
		{Spec: "ior-fpp", Machine: "franklin", Seed: 7},
		{Spec: "madbench", Machine: "jaguar", Seed: 7},
		{Spec: "madbench", Machine: "jaguar", Seed: 7, Faults: flaky, Telemetry: true},
		{Spec: "gcrm-baseline", Machine: "franklin", Seed: 7},
		{Spec: "gcrm-collective", Machine: "franklin", Seed: 7},
		{Spec: "gcrm-collective", Machine: "franklin", Seed: 7, Faults: flaky, Telemetry: true},
		{Spec: "gcrm-twostage", Machine: "franklin", Seed: 7},
		{Spec: "gcrm-aligned", Machine: "franklin", Seed: 7},
		{Spec: "gcrm-metaagg", Machine: "franklin", Seed: 7},
		{Spec: "checkpoint-bursty", Machine: "franklin", Seed: 7},
		{Spec: "checkpoint-bursty", Machine: "franklin", Seed: 7, Faults: flaky, Telemetry: true},
		{Spec: "mixed-rw", Machine: "franklin", Seed: 7},
	}
	return cases
}

func (g *goldenWorkload) label() string {
	l := g.Spec
	if g.Faults != "" {
		l += "-faulted"
	}
	if g.Telemetry {
		l += "-telemetry"
	}
	return l
}

func (g *goldenWorkload) machine(t *testing.T) Platform {
	t.Helper()
	switch g.Machine {
	case "franklin":
		return Franklin()
	case "jaguar":
		return Jaguar()
	}
	t.Fatalf("unknown machine %q", g.Machine)
	return Platform{}
}

// measure runs the case and digests every artifact encoding.
func (g *goldenWorkload) measure(t *testing.T) *goldenWorkload {
	t.Helper()
	spec, err := LoadWorkload(filepath.Join("testdata", "scenarios", "workloads", g.Spec+".json"))
	if err != nil {
		t.Fatalf("LoadWorkload: %v", err)
	}
	var scenario *Scenario
	if g.Faults != "" {
		if scenario, err = LoadScenario(g.Faults); err != nil {
			t.Fatalf("LoadScenario: %v", err)
		}
	}
	cfg := WorkloadRunConfig{
		Machine: g.machine(t), Seed: g.Seed, Faults: scenario, Telemetry: g.Telemetry,
	}
	run, err := RunWorkload(spec, cfg)
	if err != nil {
		t.Fatalf("RunWorkload: %v", err)
	}

	arts := map[string][]byte{}
	var bin, jsonl bytes.Buffer
	if err := SaveTrace(&bin, run); err != nil {
		t.Fatalf("SaveTrace: %v", err)
	}
	if err := SaveTraceJSON(&jsonl, run); err != nil {
		t.Fatalf("SaveTraceJSON: %v", err)
	}
	arts["trace.bin"] = bin.Bytes()
	arts["trace.jsonl"] = jsonl.Bytes()

	pcfg := cfg
	pcfg.Mode = ProfileMode
	pcfg.Telemetry = false
	prun, err := RunWorkload(spec, pcfg)
	if err != nil {
		t.Fatalf("RunWorkload(profile): %v", err)
	}
	profile, err := ProfileOf(prun)
	if err != nil {
		t.Fatalf("ProfileOf: %v", err)
	}
	var pjson bytes.Buffer
	if err := SaveProfile(&pjson, profile); err != nil {
		t.Fatalf("SaveProfile: %v", err)
	}
	arts["profile.json"] = pjson.Bytes()

	if g.Telemetry {
		var met, spans, chrome bytes.Buffer
		if err := SaveTelemetry(&met, run); err != nil {
			t.Fatalf("SaveTelemetry: %v", err)
		}
		if err := SaveSpans(&spans, run); err != nil {
			t.Fatalf("SaveSpans: %v", err)
		}
		if err := SaveChromeTrace(&chrome, run); err != nil {
			t.Fatalf("SaveChromeTrace: %v", err)
		}
		arts["telemetry.json"] = met.Bytes()
		arts["spans.jsonl"] = spans.Bytes()
		arts["chrome.json"] = chrome.Bytes()
	}

	got := *g
	got.Wall = fmt.Sprintf("%v", run.Wall)
	got.Events = len(run.Collector.Events)
	got.Marks = len(run.Collector.Marks)
	got.Artifacts = make(map[string]goldenDigest, len(arts))
	for name, b := range arts {
		if len(b) == 0 {
			t.Fatalf("%s: empty %s; the golden pin would be vacuous", g.label(), name)
		}
		sum := sha256.Sum256(b)
		got.Artifacts[name] = goldenDigest{Bytes: len(b), SHA256: hex.EncodeToString(sum[:])}
	}
	return &got
}

func TestWorkloadDSLGolden(t *testing.T) {
	for _, gc := range goldenWorkloadCases() {
		t.Run(gc.label(), func(t *testing.T) {
			t.Parallel()
			path := filepath.Join("testdata", "golden", "wldsl", gc.label()+".json")
			got := gc.measure(t)

			if *updateGolden {
				b, err := json.MarshalIndent(got, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d artifacts, %d events)", path, len(got.Artifacts), got.Events)
				return
			}

			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("no golden file %s — run `go test -run TestWorkloadDSLGolden -update .` to create it (%v)", path, err)
			}
			var want goldenWorkload
			if err := json.Unmarshal(raw, &want); err != nil {
				t.Fatalf("corrupt golden file %s: %v", path, err)
			}
			if got.Wall != want.Wall {
				t.Errorf("wall drifted: got %s, golden %s", got.Wall, want.Wall)
			}
			if got.Events != want.Events || got.Marks != want.Marks {
				t.Errorf("trace shape drifted: got %d events / %d marks, golden %d / %d",
					got.Events, got.Marks, want.Events, want.Marks)
			}
			var names []string
			for name := range want.Artifacts {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				w, g := want.Artifacts[name], got.Artifacts[name]
				if g != w {
					t.Errorf("%s drifted: got %d bytes %s, golden %d bytes %s",
						name, g.Bytes, g.SHA256, w.Bytes, w.SHA256)
				}
			}
			if len(got.Artifacts) != len(want.Artifacts) {
				t.Errorf("artifact set drifted: got %d encodings, golden %d", len(got.Artifacts), len(want.Artifacts))
			}
		})
	}
}
