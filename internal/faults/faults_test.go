package faults

import (
	"strings"
	"testing"
)

const sampleSpec = `{
  "name": "everything at once",
  "faults": [
    {"type": "slow-ost", "ost": 7, "factor": 0.01},
    {"type": "flaky-ost", "ost": 3, "start_sec": 2, "period_sec": 5, "stall_sec": 1.5},
    {"type": "slow-node-link", "node": 2, "factor": 0.05},
    {"type": "mds-brownout", "concurrency": 2, "slow_prob": 0.3, "slow_lo_sec": 0.4, "slow_hi_sec": 1.6},
    {"type": "background-bursts", "mbps": 12000, "on_sec": 4, "off_sec": 6, "start_sec": 1}
  ]
}`

func TestParseAllKinds(t *testing.T) {
	s, err := Parse(strings.NewReader(sampleSpec))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "everything at once" {
		t.Errorf("name = %q", s.Name)
	}
	wantKinds := []string{
		KindSlowOST, KindFlakyOST, KindSlowNodeLink, KindMDSBrownout, KindBackgroundBursts,
	}
	if len(s.Faults) != len(wantKinds) {
		t.Fatalf("got %d faults, want %d", len(s.Faults), len(wantKinds))
	}
	for i, k := range wantKinds {
		if got := s.Faults[i].Kind(); got != k {
			t.Errorf("fault %d kind = %q, want %q", i, got, k)
		}
	}
	if so, ok := s.Faults[0].(*SlowOST); !ok || so.OST != 7 || so.Factor != 0.01 {
		t.Errorf("slow-ost decoded as %+v", s.Faults[0])
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s, err := Parse(strings.NewReader(sampleSpec))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Parse(strings.NewReader(string(b)))
	if err != nil {
		t.Fatalf("re-parsing own encoding: %v\nencoding: %s", err, b)
	}
	b2, err := s2.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(b2) {
		t.Errorf("encoding is not a fixed point:\n first: %s\nsecond: %s", b, b2)
	}
	if s2.String() != s.String() {
		t.Errorf("round trip changed the scenario: %s != %s", s2, s)
	}
}

func TestParseRejects(t *testing.T) {
	cases := []struct {
		name, spec, wantErr string
	}{
		{"unknown type", `{"faults":[{"type":"meteor-strike"}]}`, `unknown fault type "meteor-strike"`},
		{"missing type", `{"faults":[{"ost": 3}]}`, `missing "type" tag`},
		{"slow-ost factor 1", `{"faults":[{"type":"slow-ost","ost":0,"factor":1}]}`, "factor must be in (0,1)"},
		{"slow-ost factor 0", `{"faults":[{"type":"slow-ost","ost":0}]}`, "factor must be in (0,1)"},
		{"negative ost", `{"faults":[{"type":"slow-ost","ost":-1,"factor":0.5}]}`, "ost must be non-negative"},
		{"flaky stall > period", `{"faults":[{"type":"flaky-ost","ost":0,"period_sec":2,"stall_sec":3}]}`, "stall_sec must be in (0, period_sec]"},
		{"flaky no period", `{"faults":[{"type":"flaky-ost","ost":0,"stall_sec":1}]}`, "period_sec must be positive"},
		{"link factor high", `{"faults":[{"type":"slow-node-link","node":0,"factor":1.5}]}`, "factor must be in (0,1)"},
		{"empty brownout", `{"faults":[{"type":"mds-brownout"}]}`, "needs concurrency and/or slow_prob"},
		{"brownout bad window", `{"faults":[{"type":"mds-brownout","slow_prob":0.5,"slow_lo_sec":2,"slow_hi_sec":1}]}`, "slow_lo_sec <= slow_hi_sec"},
		{"bursts no rate", `{"faults":[{"type":"background-bursts","on_sec":1}]}`, "mbps must be positive"},
		{"bursts no window", `{"faults":[{"type":"background-bursts","mbps":100}]}`, "on_sec must be positive"},
		{"unknown top-level field", `{"fualts":[{"type":"slow-ost","ost":0,"factor":0.5}]}`, `unknown field "fualts"`},
		{"unknown fault field", `{"faults":[{"type":"slow-ost","ost":0,"factor":0.5,"facter":0.1}]}`, `unknown field "facter"`},
		{"trailing data", `{"faults":[]} {"faults":[]}`, "trailing data"},
		{"trailing brace", `{"faults":[]}}`, "trailing data"},
		{"oversized", `{"name":"` + strings.Repeat("x", MaxScenarioBytes) + `"}`, "exceeds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(strings.NewReader(tc.spec))
			if err == nil {
				t.Fatalf("spec %s parsed without error", tc.spec)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestScenarioString(t *testing.T) {
	s := &Scenario{Faults: []Fault{&SlowOST{OST: 1, Factor: 0.5}, &MDSBrownout{Concurrency: 2}}}
	if got, want := s.String(), "scenario[slow-ost,mds-brownout]"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// FuzzScenarioParse: Parse never panics, and an accepted scenario
// re-parses from its MarshalJSON encoding to the same canonical bytes.
func FuzzScenarioParse(f *testing.F) {
	f.Add(sampleSpec)
	f.Add(`{"name":"x","faults":[{"type":"slow-ost","ost":1,"factor":0.5}]}`)
	f.Add(`{"fualts":[]}`)
	f.Add(`{"faults":[{"type":"flaky-ost","ost":0,"period_sec":2,"stall_sec":1,"facter":1}]}`)
	f.Add(`{} {}`)
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := Parse(strings.NewReader(spec))
		if err != nil {
			return
		}
		b, err := Canonical(s)
		if err != nil {
			t.Fatalf("accepted scenario does not encode: %v", err)
		}
		s2, err := Parse(strings.NewReader(string(b)))
		if err != nil {
			t.Fatalf("encoding %s does not re-parse: %v", b, err)
		}
		b2, err := Canonical(s2)
		if err != nil {
			t.Fatalf("re-parsed scenario does not encode: %v", err)
		}
		if string(b) != string(b2) {
			t.Fatalf("canonical bytes moved:\n first: %s\nsecond: %s", b, b2)
		}
	})
}
