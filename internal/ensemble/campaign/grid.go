package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"ensembleio/internal/cluster"
	"ensembleio/internal/faults"
	"ensembleio/internal/wldsl"
	"ensembleio/internal/workloads"
)

// Bounds on a campaign grid file. A grid is operator input, so every
// dimension that scales the work it describes is capped.
const (
	MaxGridBytes     = 1 << 20 // encoded grid size
	MaxGridEntries   = 4096    // entries in one grid
	MaxGridSeeds     = 1024    // seeds in one seed list
	MaxGridScenarios = 1 << 16 // scenarios the grid expands into
)

// Grid is a campaign grid file (JSON):
//
//	{
//	  "name": "readahead-sweep",
//	  "machine": "franklin",
//	  "seeds": [1, 2, 3],
//	  "entries": [
//	    {"gen": 7},
//	    {"spec": "workloads/ior-shared.json", "seeds": [5]},
//	    {"spec": "workloads/ior-shared.json", "machine": "jaguar",
//	     "faults": "flaky-ost.json"}
//	  ]
//	}
//
// Each entry names a workload, a spec file path (relative to the grid
// file) or a generator seed ("gen"), and expands into one scenario per
// seed: the entry's "seeds", else the grid's, else [1]. "machine" and
// "faults" likewise default from the grid level.
type Grid struct {
	Name    string      `json:"name"`
	Machine string      `json:"machine,omitempty"`
	Faults  string      `json:"faults,omitempty"`
	Seeds   []int64     `json:"seeds,omitempty"`
	Entries []GridEntry `json:"entries"`
}

// GridEntry is one workload line of a Grid.
type GridEntry struct {
	Name    string  `json:"name,omitempty"`
	Spec    string  `json:"spec,omitempty"`
	Gen     *int64  `json:"gen,omitempty"`
	Machine string  `json:"machine,omitempty"`
	Faults  string  `json:"faults,omitempty"`
	Seeds   []int64 `json:"seeds,omitempty"`
}

// ParseGrid decodes and validates a grid. It rejects unknown fields,
// trailing data, inputs beyond MaxGridBytes, seed lists beyond
// MaxGridSeeds, more than MaxGridEntries entries, grids that expand
// into more than MaxGridScenarios scenarios, unknown machines, and
// entries that give both or neither of spec and gen.
func ParseGrid(r io.Reader) (*Grid, error) {
	data, err := io.ReadAll(io.LimitReader(r, MaxGridBytes+1))
	if err != nil {
		return nil, fmt.Errorf("campaign: reading grid: %w", err)
	}
	if len(data) > MaxGridBytes {
		return nil, fmt.Errorf("campaign: grid exceeds %d bytes", MaxGridBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var g Grid
	if err := dec.Decode(&g); err != nil {
		return nil, fmt.Errorf("campaign: decoding grid: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("campaign: trailing data after the grid")
	}
	if err := g.validate(); err != nil {
		return nil, err
	}
	return &g, nil
}

// LoadGrid reads and validates the grid file at path.
func LoadGrid(path string) (*Grid, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // read-only descriptor; close errors carry no data loss
	g, err := ParseGrid(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

func (g *Grid) validate() error {
	switch {
	case len(g.Entries) == 0:
		return fmt.Errorf("campaign: grid has no entries")
	case len(g.Entries) > MaxGridEntries:
		return fmt.Errorf("campaign: %d entries, limit %d", len(g.Entries), MaxGridEntries)
	case len(g.Seeds) > MaxGridSeeds:
		return fmt.Errorf("campaign: %d seeds, limit %d", len(g.Seeds), MaxGridSeeds)
	}
	if err := checkMachine(g.Machine); err != nil {
		return err
	}
	total := 0
	for i, e := range g.Entries {
		switch {
		case e.Spec != "" && e.Gen != nil:
			return fmt.Errorf("campaign: entry %d: give spec or gen, not both", i)
		case e.Spec == "" && e.Gen == nil:
			return fmt.Errorf("campaign: entry %d: needs a spec path or a gen seed", i)
		case len(e.Seeds) > MaxGridSeeds:
			return fmt.Errorf("campaign: entry %d: %d seeds, limit %d", i, len(e.Seeds), MaxGridSeeds)
		}
		if err := checkMachine(e.Machine); err != nil {
			return fmt.Errorf("campaign: entry %d: %w", i, err)
		}
		total += len(g.entrySeeds(e))
	}
	if total > MaxGridScenarios {
		return fmt.Errorf("campaign: grid expands into %d scenarios, limit %d", total, MaxGridScenarios)
	}
	return nil
}

func checkMachine(name string) error {
	if name == "" {
		return nil
	}
	_, err := cluster.ProfileByName(name)
	return err
}

// entrySeeds is the seed list entry e expands over.
func (g *Grid) entrySeeds(e GridEntry) []int64 {
	switch {
	case len(e.Seeds) > 0:
		return e.Seeds
	case len(g.Seeds) > 0:
		return g.Seeds
	}
	return []int64{1}
}

// Expand turns the grid into the flat scenario list, in file order:
// entries outer, seeds inner. Relative spec and faults paths resolve
// against baseDir (the grid file's directory); defaultMachine applies
// where neither the entry nor the grid names a machine.
func (g *Grid) Expand(baseDir, defaultMachine string) ([]Entry, error) {
	var out []Entry
	for i, e := range g.Entries {
		var spec *workloads.Spec
		if e.Gen != nil {
			spec = wldsl.Generate(*e.Gen)
		} else {
			var err error
			if spec, err = wldsl.Load(resolve(baseDir, e.Spec)); err != nil {
				return nil, fmt.Errorf("entry %d: %w", i, err)
			}
		}
		machine := firstSet(e.Machine, g.Machine, defaultMachine)
		prof, err := cluster.ProfileByName(machine)
		if err != nil {
			return nil, fmt.Errorf("entry %d: %w", i, err)
		}
		var sc *faults.Scenario
		if path := firstSet(e.Faults, g.Faults); path != "" {
			if sc, err = faults.Load(resolve(baseDir, path)); err != nil {
				return nil, fmt.Errorf("entry %d: %w", i, err)
			}
		}
		name := firstSet(e.Name, spec.Name)
		for _, s := range g.entrySeeds(e) {
			out = append(out, Entry{Name: name, Spec: spec, Platform: prof, Faults: sc, Seed: s})
		}
	}
	return out, nil
}

// firstSet returns the first non-empty string.
func firstSet(vs ...string) string {
	for _, v := range vs {
		if v != "" {
			return v
		}
	}
	return ""
}

func resolve(baseDir, path string) string {
	if filepath.IsAbs(path) {
		return path
	}
	return filepath.Join(baseDir, path)
}
