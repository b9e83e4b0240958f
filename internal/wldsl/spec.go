// Package wldsl is the JSON side of the declarative workload DSL:
// parsing, loading, canonical encoding, and seeded generation of
// workload specs. The spec types, their validation, and the
// interpreter that turns a spec into simulated processes live in
// internal/workloads, next to the job plumbing they drive; the
// paper's three studied workloads — IOR (§III), MADbench (§IV), and
// GCRM (§V) — are spec builders there, so one interpreter runs every
// workload. New workloads are data, not code — see
// testdata/scenarios/workloads/ for the scenario corpus and cmd/wlrun
// for the spec-in, artifacts-out driver.
//
// Parsing and generation feed the per-run simulation, so this package
// lives in the simulator determinism domain: no wall clock, no global
// rand, no goroutines, no scheduler-visible state (see DESIGN.md §14).
//
//detflow:domain sim
package wldsl

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"ensembleio/internal/workloads"
)

// Spec, Program, RunConfig, and Compile keep their wldsl names for
// the benchmark module (bench/), which is built against this package
// and must not change; in-repo callers use internal/workloads.
type (
	// Spec is workloads.Spec, kept under its wldsl name for bench/.
	Spec = workloads.Spec
	// Program is workloads.Program, kept under its wldsl name for bench/.
	Program = workloads.Program
	// RunConfig is workloads.RunConfig, kept under its wldsl name for bench/.
	RunConfig = workloads.RunConfig
)

// Compile is workloads.Compile, kept under its wldsl name for bench/.
func Compile(s *Spec) (*Program, error) { return workloads.Compile(s) }

// MaxSpecBytes bounds the encoded spec a parser will read.
const MaxSpecBytes = 1 << 20

// Parse decodes a spec from r. Unknown fields are rejected (a typo in
// a workload spec must fail loudly, not silently change the
// workload), inputs beyond MaxSpecBytes are rejected, and the decoded
// spec is validated.
func Parse(r io.Reader) (*workloads.Spec, error) {
	data, err := io.ReadAll(io.LimitReader(r, MaxSpecBytes+1))
	if err != nil {
		return nil, fmt.Errorf("wldsl: reading spec: %w", err)
	}
	if len(data) > MaxSpecBytes {
		return nil, fmt.Errorf("wldsl: spec exceeds %d bytes", MaxSpecBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s workloads.Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("wldsl: decoding spec: %w", err)
	}
	// A spec is one JSON document; trailing garbage is a malformed
	// file, not an ensemble.
	if dec.More() {
		return nil, fmt.Errorf("wldsl: trailing data after spec")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads and validates the spec file at path.
func Load(path string) (*workloads.Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // read-only descriptor; close errors carry no data loss
	s, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Encode writes the spec in its canonical form: two-space indented
// JSON in struct field order, trailing newline. Encode∘Parse is a
// fixpoint (pinned by FuzzSpecDecode).
func Encode(w io.Writer, s *workloads.Spec) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("wldsl: encoding spec: %w", err)
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
