package faults

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"ensembleio/internal/cluster"
	"ensembleio/internal/lustre"
)

// Scenario is a named, JSON-decodable composition of faults. The CLIs
// accept one via -faults scenario.json:
//
//	{
//	  "name": "straggler hunt",
//	  "faults": [
//	    {"type": "slow-ost", "ost": 7, "factor": 0.01},
//	    {"type": "background-bursts", "mbps": 12000, "on_sec": 4, "off_sec": 6}
//	  ]
//	}
type Scenario struct {
	Name   string
	Faults []Fault
}

// Apply installs every fault of the scenario, in order, on a freshly
// built machine and mounted file system (before the workload launches).
func (s *Scenario) Apply(m *cluster.Machine, fs *lustre.FS) error {
	for i, f := range s.Faults {
		if err := f.Apply(m, fs); err != nil {
			return fmt.Errorf("faults: entry %d (%s): %w", i, f.Kind(), err)
		}
	}
	return nil
}

func (s *Scenario) String() string {
	kinds := make([]string, len(s.Faults))
	for i, f := range s.Faults {
		kinds[i] = f.Kind()
	}
	name := s.Name
	if name == "" {
		name = "scenario"
	}
	return fmt.Sprintf("%s[%s]", name, strings.Join(kinds, ","))
}

// newFault returns the zero value for a kind tag.
func newFault(kind string) (Fault, error) {
	switch kind {
	case KindSlowOST:
		return &SlowOST{}, nil
	case KindFlakyOST:
		return &FlakyOST{}, nil
	case KindSlowNodeLink:
		return &SlowNodeLink{}, nil
	case KindMDSBrownout:
		return &MDSBrownout{}, nil
	case KindBackgroundBursts:
		return &BackgroundBursts{}, nil
	case "":
		return nil, fmt.Errorf(`missing "type" tag`)
	}
	return nil, fmt.Errorf("unknown fault type %q", kind)
}

// UnmarshalJSON decodes and validates the scenario spec form. Unknown
// fields, at the top level or in a fault entry, are rejected: a typo
// in a scenario must fail loudly, not silently drop a fault or one of
// its parameters.
func (s *Scenario) UnmarshalJSON(b []byte) error {
	var raw struct {
		Name   string            `json:"name"`
		Faults []json.RawMessage `json:"faults"`
	}
	if err := decodeStrict(b, &raw); err != nil {
		return err
	}
	s.Name = raw.Name
	s.Faults = nil
	for i, msg := range raw.Faults {
		// The "type" tag selects the fault; every other field must
		// belong to that fault kind.
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(msg, &fields); err != nil {
			return fmt.Errorf("faults: entry %d: %w", i, err)
		}
		var kind string
		if tag, ok := fields["type"]; ok {
			if err := json.Unmarshal(tag, &kind); err != nil {
				return fmt.Errorf("faults: entry %d: %w", i, err)
			}
			delete(fields, "type")
		}
		f, err := newFault(kind)
		if err != nil {
			return fmt.Errorf("faults: entry %d: %w", i, err)
		}
		params, err := json.Marshal(fields)
		if err != nil {
			return fmt.Errorf("faults: entry %d (%s): %w", i, kind, err)
		}
		if err := decodeStrict(params, f); err != nil {
			return fmt.Errorf("faults: entry %d (%s): %w", i, kind, err)
		}
		if err := f.Validate(); err != nil {
			return fmt.Errorf("faults: entry %d (%s): %w", i, kind, err)
		}
		s.Faults = append(s.Faults, f)
	}
	return nil
}

// decodeStrict unmarshals b into v, rejecting fields v does not
// declare.
func decodeStrict(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// MarshalJSON encodes the spec form (round-trips with UnmarshalJSON;
// map keys are emitted sorted, so the encoding is deterministic).
func (s Scenario) MarshalJSON() ([]byte, error) {
	entries := make([]map[string]any, 0, len(s.Faults))
	for i, f := range s.Faults {
		fields, err := json.Marshal(f)
		if err != nil {
			return nil, fmt.Errorf("faults: entry %d: %w", i, err)
		}
		m := map[string]any{}
		if err := json.Unmarshal(fields, &m); err != nil {
			return nil, fmt.Errorf("faults: entry %d: %w", i, err)
		}
		m["type"] = f.Kind()
		entries = append(entries, m)
	}
	return json.Marshal(struct {
		Name   string           `json:"name,omitempty"`
		Faults []map[string]any `json:"faults"`
	}{Name: s.Name, Faults: entries})
}

// Canonical returns the scenario's canonical bytes: the deterministic
// MarshalJSON encoding (sorted keys, compact), with a nil scenario
// mapping to the literal "none". This is the fault-scenario component
// of the content-addressed cache key (internal/cascache): two
// scenarios with the same canonical bytes inject the same faults.
func Canonical(s *Scenario) ([]byte, error) {
	if s == nil {
		return []byte("none"), nil
	}
	return json.Marshal(*s)
}

// MaxScenarioBytes bounds the encoded scenario Parse will read.
const MaxScenarioBytes = 1 << 20

// Parse reads and validates a scenario spec: one JSON document of at
// most MaxScenarioBytes, with no unknown fields and nothing after it.
func Parse(r io.Reader) (*Scenario, error) {
	data, err := io.ReadAll(io.LimitReader(r, MaxScenarioBytes+1))
	if err != nil {
		return nil, fmt.Errorf("faults: reading scenario: %w", err)
	}
	if len(data) > MaxScenarioBytes {
		return nil, fmt.Errorf("faults: scenario exceeds %d bytes", MaxScenarioBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("faults: decoding scenario: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("faults: trailing data after scenario")
	}
	return &s, nil
}

// Load reads a scenario spec from a file.
func Load(path string) (*Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
