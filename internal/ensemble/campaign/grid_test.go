package campaign

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ensembleio/internal/wldsl"
)

// gridDir holds the checked-in campaign grids; their spec and faults
// paths resolve against it.
const gridDir = "../../../testdata/scenarios/campaigns"

func parseGrid(t *testing.T, doc string) *Grid {
	t.Helper()
	g, err := ParseGrid(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("ParseGrid: %v", err)
	}
	return g
}

func TestExpandGrid(t *testing.T) {
	g := parseGrid(t, `{"name": "t", "seeds": [1, 2], "entries": [
		{"gen": 7},
		{"gen": 7, "seeds": [9], "machine": "jaguar"}]}`)
	entries, err := g.Expand(t.TempDir(), "franklin")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("expanded to %d entries, want 3 (2 default seeds + 1 override)", len(entries))
	}
	if entries[0].Seed != 1 || entries[1].Seed != 2 || entries[2].Seed != 9 {
		t.Fatalf("seeds %d,%d,%d", entries[0].Seed, entries[1].Seed, entries[2].Seed)
	}
	if entries[2].Platform.Name == entries[0].Platform.Name {
		t.Fatal("per-entry machine override ignored")
	}
}

// TestExpandErrors: every malformed or oversized grid is refused at
// parse time, before any spec file is read.
func TestExpandErrors(t *testing.T) {
	seeds := func(n int) string {
		return strings.TrimSuffix(strings.Repeat("1,", n), ",")
	}
	entries := func(n int, entry string) string {
		return strings.TrimSuffix(strings.Repeat(entry+",", n), ",")
	}
	cases := map[string]string{
		"neither spec nor gen": `{"entries": [{}]}`,
		"spec and gen":         `{"entries": [{"spec": "x.json", "gen": 7}]}`,
		"unknown machine":      `{"entries": [{"gen": 7, "machine": "nope"}]}`,
		"unknown grid machine": `{"machine": "nope", "entries": [{"gen": 7}]}`,
		"unknown field":        `{"entries": [{"gen": 7}], "seed": [1]}`,
		"unknown entry field":  `{"entries": [{"gen": 7, "spce": "x.json"}]}`,
		"trailing data":        `{"entries": [{"gen": 7}]} {"entries": []}`,
		"trailing garbage":     `{"entries": [{"gen": 7}]}]`,
		"no entries":           `{"name": "empty"}`,
		"not an object":        `[1, 2]`,
		"too many seeds":       fmt.Sprintf(`{"seeds": [%s], "entries": [{"gen": 7}]}`, seeds(MaxGridSeeds+1)),
		"too many entry seeds": fmt.Sprintf(`{"entries": [{"gen": 7, "seeds": [%s]}]}`, seeds(MaxGridSeeds+1)),
		"too many entries":     fmt.Sprintf(`{"entries": [%s]}`, entries(MaxGridEntries+1, `{"gen":1}`)),
		"product over cap": fmt.Sprintf(`{"seeds": [%s], "entries": [%s]}`,
			seeds(MaxGridSeeds), entries(MaxGridScenarios/MaxGridSeeds+1, `{"gen":1}`)),
		"oversized": `{"entries": [{"gen": 7}], "name": "` + strings.Repeat("x", MaxGridBytes) + `"}`,
	}
	for name, doc := range cases {
		if g, err := ParseGrid(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: ParseGrid accepted the grid: %+v", name, g.Entries)
		}
	}
	// At the caps exactly, the grid is accepted.
	doc := fmt.Sprintf(`{"seeds": [%s], "entries": [%s]}`,
		seeds(MaxGridSeeds), entries(MaxGridScenarios/MaxGridSeeds, `{"gen":1}`))
	if _, err := ParseGrid(strings.NewReader(doc)); err != nil {
		t.Errorf("grid at the scenario cap refused: %v", err)
	}
}

func TestExpandRelativePaths(t *testing.T) {
	dir := t.TempDir()
	spec := wldsl.Generate(3)
	f, err := os.Create(filepath.Join(dir, "wl.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := wldsl.Encode(f, spec); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := parseGrid(t, `{"entries": [{"spec": "wl.json"}]}`).Expand(dir, "franklin")
	if err != nil {
		t.Fatal(err)
	}
	if entries[0].Name != spec.Name {
		t.Fatalf("entry name %q, want %q", entries[0].Name, spec.Name)
	}
	if _, err := parseGrid(t, `{"entries": [{"spec": "missing.json"}]}`).Expand(dir, "franklin"); err == nil {
		t.Fatal("Expand accepted a missing spec file")
	}
}

// TestCheckedInGridsParse keeps every campaign grid in the tree
// loadable and expandable.
func TestCheckedInGridsParse(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join(gridDir, "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no checked-in grids (%v)", err)
	}
	for _, path := range paths {
		g, err := LoadGrid(path)
		if err != nil {
			t.Errorf("%v", err)
			continue
		}
		if _, err := g.Expand(filepath.Dir(path), "franklin"); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
}

// FuzzCampaignGrid: ParseGrid never panics, and whatever it accepts
// expands the same way twice, into exactly the scenarios it counted.
func FuzzCampaignGrid(f *testing.F) {
	paths, _ := filepath.Glob(filepath.Join(gridDir, "*.json"))
	for _, path := range paths {
		if data, err := os.ReadFile(path); err == nil {
			f.Add(data)
		}
	}
	f.Add([]byte(`{"seeds": [1, 2], "entries": [{"gen": 7}, {"gen": 7, "seeds": [9], "machine": "jaguar"}]}`))
	f.Add([]byte(`{"entries": [{"spec": "../workloads/ior-shared.json", "faults": "../flaky-ost.json"}]}`))
	f.Add([]byte(`{"entries": [{"spec": "x.json", "gen": 1}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ParseGrid(strings.NewReader(string(data)))
		if err != nil {
			return
		}
		a, errA := g.Expand(gridDir, "franklin")
		b, errB := g.Expand(gridDir, "franklin")
		if fmt.Sprint(errA) != fmt.Sprint(errB) {
			t.Fatalf("Expand errors differ: %v vs %v", errA, errB)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("Expand is not deterministic")
		}
		if errA != nil {
			return
		}
		want := 0
		for _, e := range g.Entries {
			want += len(g.entrySeeds(e))
		}
		if len(a) != want || want > MaxGridScenarios {
			t.Fatalf("expanded into %d scenarios, want %d (cap %d)", len(a), want, MaxGridScenarios)
		}
	})
}
