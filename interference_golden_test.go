package ensembleio

// Golden pinning for the multi-tenant interference pipeline. The
// tenancy determinism test proves co-run artifacts are byte-identical
// across worker counts *today*; these goldens
// pin the serialized bytes across time, so an engine, accounting, or
// analysis change that shifts any byte of any encoding — per-tenant
// traces, the merged telemetry snapshot, the span stream, the
// interference report — fails loudly. Golden files store sizes and
// SHA-256 digests; regenerate with:
//
//	go test -run TestInterferenceGolden -update .

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

// goldenDuel is one pinned two-tenant co-run: the tenant specs with
// their stagger, the runtime knobs, and the digest of every artifact.
type goldenDuel struct {
	Specs   []string  `json:"specs"`
	Stagger []float64 `json:"stagger"`
	Machine string    `json:"machine"`
	Seed    int64     `json:"seed"`
	Faults  string    `json:"faults,omitempty"`

	Events    int                     `json:"events"`
	Findings  int                     `json:"findings"`
	Windows   int                     `json:"windows"`
	Artifacts map[string]goldenDigest `json:"artifacts"`
}

func goldenDuelCases() []goldenDuel {
	return []goldenDuel{
		{Specs: []string{"ior-shared", "gcrm-collective"}, Stagger: []float64{0, 1}, Machine: "franklin", Seed: 5},
		{Specs: []string{"ior-shared", "checkpoint-bursty"}, Stagger: []float64{0, 0}, Machine: "franklin", Seed: 7},
		{Specs: []string{"ior-shared", "gcrm-collective"}, Stagger: []float64{0, 1}, Machine: "franklin", Seed: 5,
			Faults: "testdata/scenarios/flaky-ost.json"},
	}
}

func (g *goldenDuel) label() string {
	l := g.Specs[0] + "-vs-" + g.Specs[1]
	if g.Faults != "" {
		l += "-faulted"
	}
	return fmt.Sprintf("%s-seed%d", l, g.Seed)
}

// measure runs the co-run plus the interference analysis and digests
// every artifact encoding.
func (g *goldenDuel) measure(t *testing.T) *goldenDuel {
	t.Helper()
	tenants := make([]Tenant, len(g.Specs))
	for i, name := range g.Specs {
		spec, err := LoadWorkload(filepath.Join("testdata", "scenarios", "workloads", name+".json"))
		if err != nil {
			t.Fatalf("LoadWorkload: %v", err)
		}
		tenants[i] = Tenant{Name: name, Spec: spec, StartSec: g.Stagger[i]}
	}
	var scenario *Scenario
	if g.Faults != "" {
		var err error
		if scenario, err = LoadScenario(g.Faults); err != nil {
			t.Fatalf("LoadScenario: %v", err)
		}
	}
	var prof Platform
	switch g.Machine {
	case "franklin":
		prof = Franklin()
	case "jaguar":
		prof = Jaguar()
	default:
		t.Fatalf("unknown machine %q", g.Machine)
	}
	cfg := TenancyConfig{Machine: prof, Seed: g.Seed, Faults: scenario, Telemetry: true}
	res, err := RunTenants(cfg, tenants)
	if err != nil {
		t.Fatalf("RunTenants: %v", err)
	}
	rep, err := AnalyzeInterference(cfg, tenants, res, InterferenceConfig{})
	if err != nil {
		t.Fatalf("AnalyzeInterference: %v", err)
	}

	arts := map[string][]byte{}
	events := 0
	for i := range res.Tenants {
		tr := &res.Tenants[i]
		events += len(tr.Run.Collector.Events)
		var bin bytes.Buffer
		if err := SaveTrace(&bin, tr.Run); err != nil {
			t.Fatalf("SaveTrace(%s): %v", tr.Name, err)
		}
		arts[tr.Name+".trace.bin"] = bin.Bytes()
	}
	var met, spans bytes.Buffer
	if err := SaveTelemetrySnapshot(&met, res.Telemetry); err != nil {
		t.Fatalf("SaveTelemetrySnapshot: %v", err)
	}
	if err := SaveSpanList(&spans, res.Spans); err != nil {
		t.Fatalf("SaveSpanList: %v", err)
	}
	arts["telemetry.json"] = met.Bytes()
	arts["spans.jsonl"] = spans.Bytes()
	repJSON, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	arts["interference.json"] = append(repJSON, '\n')

	got := *g
	got.Events = events
	got.Findings = len(rep.Ranking)
	got.Windows = len(rep.Windows)
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

func TestInterferenceGolden(t *testing.T) {
	for _, gc := range goldenDuelCases() {
		t.Run(gc.label(), func(t *testing.T) {
			t.Parallel()
			path := filepath.Join("testdata", "golden", "interference", gc.label()+".json")
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
				t.Logf("wrote %s (%d artifacts, %d events, %d findings)", path, len(got.Artifacts), got.Events, got.Findings)
				return
			}

			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("no golden file %s — run `go test -run TestInterferenceGolden -update .` to create it (%v)", path, err)
			}
			var want goldenDuel
			if err := json.Unmarshal(raw, &want); err != nil {
				t.Fatalf("corrupt golden file %s: %v", path, err)
			}
			if got.Events != want.Events || got.Findings != want.Findings || got.Windows != want.Windows {
				t.Errorf("report shape drifted: got %d events / %d findings / %d windows, golden %d / %d / %d",
					got.Events, got.Findings, got.Windows, want.Events, want.Findings, want.Windows)
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
