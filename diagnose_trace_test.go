package ensembleio

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// saveAndLoad writes a run's binary trace and telemetry snapshot and
// decodes them again, as tracestat reads what wlrun -trace and
// -telemetry wrote.
func saveAndLoad(t *testing.T, run *Run) ([]Event, []PhaseMark, *TelemetrySnapshot) {
	t.Helper()
	var trace, tel bytes.Buffer
	if err := SaveTrace(&trace, run); err != nil {
		t.Fatal(err)
	}
	if err := SaveTelemetry(&tel, run); err != nil {
		t.Fatal(err)
	}
	events, marks, err := LoadTrace(&trace)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := LoadTelemetry(&tel)
	if err != nil {
		t.Fatal(err)
	}
	return events, marks, snap
}

func loadSpecFile(t *testing.T, path string) *WorkloadSpec {
	t.Helper()
	spec, err := LoadWorkload(path)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestDiagnoseTraceMatchesDiagnose: diagnosing a saved trace with its
// telemetry snapshot gives exactly the live run's findings, and
// without the snapshot only the OST-rate cross-check (straggler-ost)
// is lost. Each run carries the finding named in must.
func TestDiagnoseTraceMatchesDiagnose(t *testing.T) {
	withTel := func(cfg IORConfig) IORConfig {
		cfg.Telemetry = true
		return cfg
	}
	flaky, err := LoadScenario("testdata/scenarios/flaky-ost.json")
	if err != nil {
		t.Fatal(err)
	}
	spec := func(path string, sc *Scenario) func() (*Run, error) {
		return func() (*Run, error) {
			return RunWorkload(loadSpecFile(t, path), WorkloadRunConfig{
				Machine: Franklin(), Seed: 1, Faults: sc, Telemetry: true,
			})
		}
	}
	cases := []struct {
		name string
		run  func() (*Run, error)
		must string
	}{
		{"straggler-ost", func() (*Run, error) { return RunIOR(withTel(stragglerConfig())), nil }, "straggler-ost"},
		{"slow-node", func() (*Run, error) { return RunIOR(withTel(slowNodeConfig())), nil }, "slow-node"},
		// The trace-smoke run: the 64-task IOR preset under flaky-ost.json.
		{"ior-64-flaky-ost", spec("testdata/scenarios/presets/ior-64.json", flaky), "intermittent-stall"},
		{"madbench", func() (*Run, error) {
			return RunMADbench(MADbenchConfig{Machine: Franklin(), Tasks: 64, Matrices: 4, Seed: 1, Telemetry: true}), nil
		}, "read-tail"},
		{"gcrm-metaagg", spec("testdata/scenarios/workloads/gcrm-metaagg.json", nil), ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			want := Diagnose(run)
			if tc.must != "" && !hasFinding(want, tc.must) {
				t.Fatalf("Diagnose missed %s: %v", tc.must, want)
			}
			events, marks, snap := saveAndLoad(t, run)
			if got := DiagnoseTrace(events, marks, snap); !reflect.DeepEqual(got, want) {
				t.Errorf("DiagnoseTrace with snapshot:\n got %v\nwant %v", got, want)
			}
			var noOST []Finding
			for _, f := range want {
				if f.Code != "straggler-ost" {
					noOST = append(noOST, f)
				}
			}
			if got := DiagnoseTrace(events, marks, nil); !reflect.DeepEqual(got, noOST) {
				t.Errorf("DiagnoseTrace without snapshot:\n got %v\nwant %v", got, noOST)
			}
			if tc.must == "straggler-ost" {
				for _, f := range want {
					if f.Code == "straggler-ost" && !strings.Contains(f.Message, "OST 5") {
						t.Errorf("straggler diagnosis names the wrong OST: %q", f.Message)
					}
				}
			}
		})
	}
}
