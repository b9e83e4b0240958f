package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

// TestWorkloadsAtReducedScale runs each workload end to end — set-ups,
// one timed pass, a traced pass — at reducedScale, with every output
// check.
func TestWorkloadsAtReducedScale(t *testing.T) {
	for _, w := range allWorkloads {
		t.Run(w.name, func(t *testing.T) {
			e := env{root: "..", tmp: t.TempDir(), seed: 1, sc: reducedScale}
			var progress bytes.Buffer
			rec, err := measure(w, e, plan{setups: 1, traced: 1e-9}, t.TempDir(), emitter{json.NewEncoder(&progress)})
			if err != nil {
				t.Fatal(err)
			}
			if rec.Failed != 0 || rec.Attempted == 0 {
				t.Fatalf("%d of %d operations failed: %v", rec.Failed, rec.Attempted, rec.Errors)
			}
			for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer()...) {
				if _, ok := rec.Metrics[d.Name]; !ok {
					t.Errorf("metric %s not measured", d.Name)
				}
			}
			for name, ok := range map[string]bool{
				"scenarios_per_s":    rec.Metrics["scenarios_per_s"].Value > 0,
				"setup_s":            rec.Metrics["setup_s"].Value > 0,
				"model.sim_s":        rec.Metrics["model.sim_s"].Value > 0,
				"trace.span_cover":   rec.Metrics["trace.span_cover"].Value > 0,
				"sim.events_popped":  (rec.Metrics["sim.events_popped"].Value > 0) == (w.name != "campaign-warm"),
				"cascache.disk_hits": (rec.Metrics["cascache.disk_hits"].Value > 0) == (w.name == "campaign-warm"),
				"tracefmt.bytes":     (rec.Metrics["tracefmt.bytes"].Value > 0) == (w.name == "campaign-cold"),
				"runpool.util":       (rec.Metrics["runpool.util"].Value > 0) == (w.name != "campaign-warm"),
			} {
				if !ok {
					t.Errorf("%s = %v is not what %s does", name, rec.Metrics[name].Value, w.name)
				}
			}
		})
	}
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestBenchmarkJSONNamesWhatThisProgramPrints(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	want := append([]metricDef(nil), endToEnd...)
	for i := range want {
		want[i].Floor = 0 // not part of the file
	}
	if !reflect.DeepEqual(bf.EndToEnd, want) {
		t.Errorf("BENCHMARK.json end_to_end\n%+v\nprogram\n%+v", bf.EndToEnd, want)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer()) {
		t.Errorf("BENCHMARK.json per_layer differs from perLayer()")
	}
	if len(bf.Workloads) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(allWorkloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != allWorkloads[i].name || w.Why != allWorkloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, allWorkloads[i].name)
		}
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer()...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %q (unit %q) is malformed or repeated", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
}
