package wldsl

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ensembleio/internal/cluster"
	"ensembleio/internal/ipmio"
	"ensembleio/internal/tracefmt"
	"ensembleio/internal/workloads"
)

const corpusDir = "../../testdata/scenarios/workloads"

func loadSpec(t *testing.T, name string) *Spec {
	t.Helper()
	s, err := Load(filepath.Join(corpusDir, name))
	if err != nil {
		t.Fatalf("Load(%s): %v", name, err)
	}
	return s
}

// serialize renders every persistent encoding of a run: binary and
// JSONL traces always, telemetry metrics and spans when the run
// carries them.
func serialize(t *testing.T, run *workloads.Run) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	var bin, jsonl bytes.Buffer
	if err := tracefmt.WriteBinary(&bin, run.Collector.Events, run.Collector.Marks, &run.Collector.Files); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	if err := tracefmt.WriteJSONL(&jsonl, run.Collector.Events, run.Collector.Marks, &run.Collector.Files); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	out["trace.bin"] = bin.Bytes()
	out["trace.jsonl"] = jsonl.Bytes()
	out["wall"] = []byte(fmt.Sprintf("%v", run.Wall))
	if run.Telemetry != nil {
		var met, spans bytes.Buffer
		if err := tracefmt.WriteMetrics(&met, run.Telemetry); err != nil {
			t.Fatalf("WriteMetrics: %v", err)
		}
		if err := tracefmt.WriteSpans(&spans, run.Spans); err != nil {
			t.Fatalf("WriteSpans: %v", err)
		}
		out["telemetry.json"] = met.Bytes()
		out["spans.jsonl"] = spans.Bytes()
	}
	return out
}

func assertSame(t *testing.T, label string, want, got map[string][]byte) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s: artifact sets differ: %d vs %d", label, len(want), len(got))
	}
	for name, w := range want {
		g := got[name]
		if !bytes.Equal(w, g) {
			i := 0
			for i < len(w) && i < len(g) && w[i] == g[i] {
				i++
			}
			t.Errorf("%s: %s differs (len %d vs %d, first divergence at byte %d)",
				label, name, len(w), len(g), i)
		}
	}
	if len(want["trace.bin"]) == 0 {
		t.Fatalf("%s: empty binary trace; identity check is vacuous", label)
	}
}

// TestPortsMatchHandCoded pins the paper workloads' spec builders to
// their corpus ports: the spec IORSpec, MADbenchSpec, or GCRMSpec
// builds from a typed config has the corpus file's canonical bytes
// once its name is set to match. The presets (presets/*.json, the
// paper-scale runs wlrun takes with -spec) are the builders' output
// itself: each file holds exactly the bytes Encode writes for its
// config, name included. (The test name predates the
// builders, from when those typed configs drove hand-coded rank
// bodies.) RunIOR, RunMADbench, and RunGCRM interpret exactly these
// specs, so the corpus goldens (TestWorkloadDSLGolden) pin the typed
// runners as well. The -telemetry cases also run the typed runner and
// the corpus spec side by side and compare every serialized artifact,
// covering what a runner adds around the interpreter.
func TestPortsMatchHandCoded(t *testing.T) {
	const seed = 7
	ior := workloads.IORConfig{
		Machine: cluster.Franklin(), Tasks: 16, Reps: 2,
		BlockBytes: 32e6, TransferBytes: 8e6, Seed: seed,
	}
	iorFPP := ior
	iorFPP.FilePerProcess, iorFPP.StripeCount = true, 1
	mad := workloads.MADbenchConfig{Machine: cluster.Jaguar(), Tasks: 36, Matrices: 2, Seed: seed}
	gcrm := func(tasks, aggs int, twoStage, align, metaAgg bool) workloads.GCRMConfig {
		return workloads.GCRMConfig{
			Machine: cluster.Franklin(), Tasks: tasks, Aggregators: aggs, TwoStage: twoStage,
			Align: align, AggregateMetadata: metaAgg, Seed: seed,
		}
	}
	iorPreset := workloads.IORConfig{Machine: cluster.Franklin(), Tasks: 1024, BlockBytes: 512e6, Reps: 5}
	ior64Preset := iorPreset
	ior64Preset.Tasks = 64
	cases := []struct {
		spec      string // path under testdata/scenarios
		telemetry bool
		build     *Spec
		// run, for the -telemetry cases, is the typed runner with
		// telemetry on.
		run func() *workloads.Run
	}{
		{"workloads/ior-shared.json", false, workloads.IORSpec(ior), nil},
		{"workloads/ior-shared.json", true, workloads.IORSpec(ior), func() *workloads.Run {
			cfg := ior
			cfg.Telemetry = true
			return workloads.RunIOR(cfg)
		}},
		{"workloads/ior-fpp.json", false, workloads.IORSpec(iorFPP), nil},
		{"workloads/madbench.json", false, workloads.MADbenchSpec(mad), nil},
		{"workloads/gcrm-baseline.json", false, workloads.GCRMSpec(gcrm(640, 0, false, false, false)), nil},
		{"workloads/gcrm-collective.json", true, workloads.GCRMSpec(gcrm(640, 80, false, false, false)), func() *workloads.Run {
			cfg := gcrm(640, 80, false, false, false)
			cfg.Telemetry = true
			return workloads.RunGCRM(cfg)
		}},
		{"workloads/gcrm-twostage.json", false, workloads.GCRMSpec(gcrm(128, 16, true, false, false)), nil},
		{"workloads/gcrm-aligned.json", false, workloads.GCRMSpec(gcrm(640, 80, false, true, false)), nil},
		{"workloads/gcrm-metaagg.json", false, workloads.GCRMSpec(gcrm(640, 80, false, true, true)), nil},
		{"presets/ior.json", false, workloads.IORSpec(iorPreset), nil},
		{"presets/ior-64.json", false, workloads.IORSpec(ior64Preset), nil},
		{"presets/madbench.json", false, workloads.MADbenchSpec(workloads.MADbenchConfig{Machine: cluster.Franklin(), Tasks: 256, Matrices: 8}), nil},
		{"presets/gcrm-baseline.json", false, workloads.GCRMSpec(gcrm(10240, 0, false, false, false)), nil},
		{"presets/gcrm-collective.json", false, workloads.GCRMSpec(gcrm(10240, 80, false, false, false)), nil},
		{"presets/gcrm-aligned.json", false, workloads.GCRMSpec(gcrm(10240, 80, false, true, false)), nil},
		{"presets/gcrm-metaagg.json", false, workloads.GCRMSpec(gcrm(10240, 80, false, true, true)), nil},
		{"presets/gcrm-twostage.json", false, workloads.GCRMSpec(gcrm(10240, 80, true, false, false)), nil},
	}
	for _, tc := range cases {
		dir, file := filepath.Split(tc.spec)
		name := strings.TrimSuffix(file, ".json")
		isPreset := dir == "presets/"
		if isPreset {
			name = "preset-" + name
		}
		if tc.telemetry {
			name += "-telemetry"
		}
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(corpusDir, "..", tc.spec)
			port, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			built := *tc.build
			var want []byte
			if isPreset {
				want, err = os.ReadFile(path)
			} else {
				built.Name = port.Name
				want, err = CanonicalBytes(port)
			}
			if err != nil {
				t.Fatal(err)
			}
			got, err := CanonicalBytes(&built)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("builder spec differs from the corpus port:\n--- built\n%s--- %s\n%s", got, tc.spec, want)
			}
			if tc.run == nil {
				return
			}
			p, err := workloads.Compile(port)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			run := p.Run(RunConfig{Machine: cluster.Franklin(), Seed: seed, Telemetry: true})
			assertSame(t, name, serialize(t, tc.run()), serialize(t, run))
		})
	}
}

// TestProfileModeMatchesHandCoded pins the other collection mode: the
// typed IOR runner profiles identically to its corpus port.
func TestProfileModeMatchesHandCoded(t *testing.T) {
	p, err := workloads.Compile(loadSpec(t, "ior-shared.json"))
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	run := p.Run(RunConfig{Machine: cluster.Franklin(), Seed: 3, Mode: ipmio.ProfileMode})
	typed := workloads.RunIOR(workloads.IORConfig{
		Machine: cluster.Franklin(), Tasks: 16, Reps: 2,
		BlockBytes: 32e6, TransferBytes: 8e6, Seed: 3, Mode: ipmio.ProfileMode,
	})
	var a, b bytes.Buffer
	pa, err := tracefmt.ProfileOf(run.Collector)
	if err != nil {
		t.Fatalf("ProfileOf(port): %v", err)
	}
	pb, err := tracefmt.ProfileOf(typed.Collector)
	if err != nil {
		t.Fatalf("ProfileOf(typed): %v", err)
	}
	if err := tracefmt.WriteProfile(&a, pa); err != nil {
		t.Fatalf("WriteProfile: %v", err)
	}
	if err := tracefmt.WriteProfile(&b, pb); err != nil {
		t.Fatalf("WriteProfile: %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) || a.Len() == 0 {
		t.Errorf("profile JSON differs (port %d bytes, typed %d bytes)", a.Len(), b.Len())
	}
}

// TestCorpusCompiles keeps every checked-in scenario spec loadable,
// valid, and compilable, and pins the corpus's minimum breadth.
func TestCorpusCompiles(t *testing.T) {
	names, err := filepath.Glob(filepath.Join(corpusDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 8 {
		t.Fatalf("scenario corpus has %d specs, want >= 8", len(names))
	}
	for _, path := range names {
		s, err := Load(path)
		if err != nil {
			t.Errorf("%s: %v", filepath.Base(path), err)
			continue
		}
		p, err := Compile(s)
		if err != nil {
			t.Errorf("%s: %v", filepath.Base(path), err)
			continue
		}
		if p.Events() == 0 || p.TotalBytes() == 0 || p.Ranks() == 0 {
			t.Errorf("%s: degenerate program (events=%d bytes=%d ranks=%d)",
				filepath.Base(path), p.Events(), p.TotalBytes(), p.Ranks())
		}
	}
}

// TestEncodeParseFixpoint: Encode(Parse(Encode(s))) == Encode(s) for
// the whole corpus — the canonical encoding is a decode/encode
// fixpoint (the property FuzzSpecDecode hammers on arbitrary input).
func TestEncodeParseFixpoint(t *testing.T) {
	names, _ := filepath.Glob(filepath.Join(corpusDir, "*.json"))
	for _, path := range names {
		s, err := Load(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		var enc1 bytes.Buffer
		if err := Encode(&enc1, s); err != nil {
			t.Fatalf("%s: Encode: %v", path, err)
		}
		s2, err := Parse(bytes.NewReader(enc1.Bytes()))
		if err != nil {
			t.Fatalf("%s: reparse of canonical encoding: %v", path, err)
		}
		var enc2 bytes.Buffer
		if err := Encode(&enc2, s2); err != nil {
			t.Fatalf("%s: re-encode: %v", path, err)
		}
		if !bytes.Equal(enc1.Bytes(), enc2.Bytes()) {
			t.Errorf("%s: encode/parse/encode is not a fixpoint", filepath.Base(path))
		}
	}
}

// mutate applies fn to a deep copy of a known-good spec and expects
// validation to reject the result.
func rejects(t *testing.T, label string, fn func(s *Spec)) {
	t.Helper()
	s := loadSpec(t, "ior-shared.json")
	fn(s)
	if err := s.Validate(); err == nil {
		t.Errorf("%s: validation accepted an invalid spec", label)
	}
}

func TestValidateRejects(t *testing.T) {
	rejects(t, "no tasks", func(s *Spec) { s.Tasks = 0 })
	rejects(t, "negative bytes", func(s *Spec) { s.Phases[1].Ops[0].Bytes = -1 })
	rejects(t, "nan seconds", func(s *Spec) {
		s.Phases[1].Ops = append(s.Phases[1].Ops, workloads.Op{Op: "compute", Seconds: nan()})
	})
	rejects(t, "second open", func(s *Spec) {
		s.Phases[2].Ops = append(s.Phases[2].Ops, workloads.Op{Op: "open"})
	})
	rejects(t, "open in repeated phase", func(s *Spec) {
		s.Phases[0].Repeat = 2
		s.Phases[0].Name = "reopen-%d"
	})
	rejects(t, "repeated phase without %d", func(s *Spec) { s.Phases[1].Name = "write-phase" })
	rejects(t, "unknown op", func(s *Spec) { s.Phases[1].Ops[0].Op = "pwrite9" })
	rejects(t, "dataset op in posix mode", func(s *Spec) {
		s.Phases[1].Ops[0] = workloads.Op{Op: "write-records", Dataset: "x"}
	})
	rejects(t, "bad name charset", func(s *Spec) { s.Name = "a b" })
	rejects(t, "unresolved offset reach", func(s *Spec) {
		s.Phases[1].Ops[0].Offset.PerRank = 1 << 42 // the coefficient bound; 15 ranks of it overshoot the offset bound
	})
}

func nan() float64 {
	z := 0.0
	return z / z
}

func TestParseRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"unknown field":  `{"name":"x","tasks":2,"bogus":1,"phases":[{"ops":[{"op":"open"}]}]}`,
		"trailing data":  `{"name":"x","tasks":2,"phases":[{"ops":[{"op":"open"}]}]} {"x":1}`,
		"not an object":  `[1,2,3]`,
		"negative tasks": `{"name":"x","tasks":-4,"phases":[{"ops":[{"op":"open"}]}]}`,
	}
	for label, src := range cases {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("%s: Parse accepted malformed input", label)
		}
	}
}

// TestGenerateDeterministicAndValid: the seeded generator is a pure
// function of its seed, and everything it emits survives validation
// and compilation.
func TestGenerateDeterministicAndValid(t *testing.T) {
	families := make(map[string]bool)
	for seed := int64(0); seed < 64; seed++ {
		a, b := Generate(seed), Generate(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: Generate is not deterministic", seed)
		}
		if _, err := Compile(a); err != nil {
			t.Errorf("seed %d (%s): generated spec does not compile: %v", seed, a.Name, err)
		}
		fam, _, _ := strings.Cut(strings.TrimPrefix(a.Name, "gen-"), "-")
		families[fam] = true
	}
	if len(families) < 6 {
		t.Errorf("64 seeds hit only %d generator families, want all 6: %v", len(families), families)
	}
}

// TestCorpusIsCanonical keeps the checked-in specs in the canonical
// encoding so diffs stay minimal and the fuzz corpus seeds are exact
// fixpoints. Regenerate a file with:
//
//	go run ./cmd/wlrun -spec <file> -canonicalize
func TestCorpusIsCanonical(t *testing.T) {
	names, _ := filepath.Glob(filepath.Join(corpusDir, "*.json"))
	for _, path := range names {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Parse(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		var enc bytes.Buffer
		if err := Encode(&enc, s); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, enc.Bytes()) {
			t.Errorf("%s: not in canonical encoding (run wlrun -canonicalize)", filepath.Base(path))
		}
	}
}
