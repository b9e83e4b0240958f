package cascache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"ensembleio/internal/cluster"
	"ensembleio/internal/faults"
	"ensembleio/internal/wldsl"
)

// reorderSpecJSON re-encodes a spec's canonical JSON through
// map[string]any and json.Marshal, which emits object keys in sorted
// order — a different field order (and whitespace) than the canonical
// struct-order encoding. Parsing it back must yield the same key.
func reorderSpecJSON(t testing.TB, canonical []byte) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(canonical, &m); err != nil {
		t.Fatalf("canonical spec not JSON: %v", err)
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func franklinPatched() cluster.Profile {
	p := cluster.Franklin()
	p.PatchStridedReadahead = true
	return p
}

var fuzzPlatforms = []cluster.Profile{cluster.Franklin(), franklinPatched(), cluster.Jaguar()}

func fuzzScenario(which uint8) *faults.Scenario {
	switch which % 3 {
	case 1:
		return &faults.Scenario{Name: "slow", Faults: []faults.Fault{&faults.SlowOST{OST: 3, Factor: 0.25}}}
	case 2:
		return &faults.Scenario{Name: "bursts", Faults: []faults.Fault{
			&faults.BackgroundBursts{MBps: 9000, OnSec: 3, OffSec: 5},
		}}
	}
	return nil
}

// FuzzScenarioKey pins the two key-derivation properties the cache
// stands on: the key is stable under non-canonical input encodings
// (JSON field reordering), and distinct seeds / platforms / fault
// scenarios never collide.
func FuzzScenarioKey(f *testing.F) {
	f.Add(int64(1), int64(1), uint8(0), uint8(0))
	f.Add(int64(7), int64(42), uint8(1), uint8(1))
	f.Add(int64(123), int64(-5), uint8(2), uint8(2))
	f.Add(int64(999), int64(0), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, genSeed, runSeed int64, platIdx, faultIdx uint8) {
		spec := wldsl.Generate(genSeed)
		prof := fuzzPlatforms[int(platIdx)%len(fuzzPlatforms)]
		sc := fuzzScenario(faultIdx % 3)

		k1, err := ScenarioKey(spec, prof, sc, runSeed)
		if err != nil {
			t.Fatal(err)
		}

		// Stability: a reordered, re-whitespaced encoding of the same
		// spec parses to the same key.
		canon, err := wldsl.CanonicalBytes(spec)
		if err != nil {
			t.Fatal(err)
		}
		reparsed, err := wldsl.Parse(bytes.NewReader(reorderSpecJSON(t, canon)))
		if err != nil {
			t.Fatalf("reordered spec did not parse: %v", err)
		}
		k2, err := ScenarioKey(reparsed, prof, sc, runSeed)
		if err != nil {
			t.Fatal(err)
		}
		if k1 != k2 {
			t.Fatalf("key unstable under JSON field reordering: %s vs %s", k1.Short(), k2.Short())
		}

		// Distinctness: perturbing any one input component changes the key.
		if kSeed, _ := ScenarioKey(spec, prof, sc, runSeed+1); kSeed == k1 {
			t.Fatal("distinct seeds collided")
		}
		other := fuzzPlatforms[(int(platIdx)+1)%len(fuzzPlatforms)]
		if kPlat, _ := ScenarioKey(spec, other, sc, runSeed); kPlat == k1 {
			t.Fatal("distinct platforms collided")
		}
		otherSc := fuzzScenario((faultIdx%3 + 1) % 3)
		if kFault, _ := ScenarioKey(spec, prof, otherSc, runSeed); kFault == k1 {
			t.Fatal("distinct fault scenarios collided")
		}
	})
}

// FuzzStoreEntry feeds arbitrary bytes to the entry decoder as a
// key's entry file. Get must never panic; it either misses, counting
// the file corrupt and evicting it, or serves artifacts whose SHA-256
// match the manifest the file carries.
func FuzzStoreEntry(f *testing.F) {
	k := testKey(f, 1)
	seedStore, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	if err := seedStore.Put(k, Meta{Workload: "w", Seed: 1}, testArtifacts()); err != nil {
		f.Fatal(err)
	}
	packed, err := os.ReadFile(seedStore.entryPath(k))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(packed)
	f.Add(packed[:len(packed)-1])
	f.Add(packed[:headerLen])
	f.Add([]byte{})
	dir := f.TempDir() // each input is written over the last one's entry
	f.Fuzz(func(t *testing.T, file []byte) {
		s, err := Open(dir) // a fresh store: empty MRU layer, zeroed stats
		if err != nil {
			t.Fatal(err)
		}
		path := s.entryPath(k)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		ent, ok := s.Get(k)
		if !ok {
			if st := s.Stats(); st.Corrupt != 1 || st.Misses != 1 {
				t.Fatalf("miss with stats %+v, want corrupt=1 miss=1", st)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("damaged entry not evicted (err=%v)", err)
			}
			return
		}
		l := parseEntry(t, file)
		var m manifest
		if err := json.Unmarshal(file[l.manifestOff:l.manifestOff+l.manifestLen], &m); err != nil {
			t.Fatal(err)
		}
		if len(ent.Artifacts) != len(m.Artifacts) {
			t.Fatalf("served %d artifacts, manifest lists %d", len(ent.Artifacts), len(m.Artifacts))
		}
		for i, a := range ent.Artifacts {
			sum := sha256.Sum256(a.Data)
			if a.Name != m.Artifacts[i].Name || hex.EncodeToString(sum[:]) != m.Artifacts[i].SHA256 {
				t.Fatalf("artifact %d (%s) does not match its manifest record", i, a.Name)
			}
		}
	})
}
