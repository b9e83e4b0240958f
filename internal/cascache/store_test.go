package cascache

import (
	"os"
	"path/filepath"
	"testing"

	"ensembleio/internal/cluster"
	"ensembleio/internal/faults"
	"ensembleio/internal/wldsl"
)

func testArtifacts() []Artifact {
	return []Artifact{
		{Name: "profile.json", Data: []byte(`{"p":1}`)},
		{Name: "trace.bin", Data: []byte{0x45, 0x49, 0x4f, 0x00, 1, 2, 3}},
	}
}

func testKey(t *testing.T, seed int64) Key {
	t.Helper()
	k, err := ScenarioKey(wldsl.Generate(seed), cluster.Franklin(), nil, seed)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestStoreRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(t, 1)
	if _, ok := s.Get(k); ok {
		t.Fatal("hit on an empty store")
	}
	meta := Meta{Workload: "w", Seed: 1, Tasks: 4, WallSec: 2.5, TotalBytes: 99}
	if err := s.Put(k, meta, testArtifacts()); err != nil {
		t.Fatal(err)
	}
	ent, ok := s.Get(k)
	if !ok {
		t.Fatal("miss after Put")
	}
	if ent.Meta != meta {
		t.Fatalf("meta %+v, want %+v", ent.Meta, meta)
	}
	if err := DiffArtifacts(ent.Artifacts, testArtifacts()); err != nil {
		t.Fatalf("served artifacts differ: %v", err)
	}

	// A fresh store over the same directory must hit from disk.
	s2, err := Open(filepath.Dir(s.Dir()))
	if err != nil {
		t.Fatal(err)
	}
	ent2, ok := s2.Get(k)
	if !ok {
		t.Fatal("miss from a fresh store over the same directory")
	}
	if err := DiffArtifacts(ent2.Artifacts, testArtifacts()); err != nil {
		t.Fatalf("disk-served artifacts differ: %v", err)
	}
	st := s2.Stats()
	if st.Hits != 1 || st.MRUHits != 0 || st.Misses != 0 {
		t.Fatalf("stats %+v, want one disk hit", st)
	}
	// Second Get is an MRU hit.
	if _, ok := s2.Get(k); !ok {
		t.Fatal("second Get missed")
	}
	if st := s2.Stats(); st.MRUHits != 1 {
		t.Fatalf("stats %+v, want one MRU hit", st)
	}
}

// TestStorePoisonedEntry is the satellite guarantee: a corrupted blob
// is detected by the digest re-check on read, treated as a miss, and
// never served — then the slot heals on the next Put.
func TestStorePoisonedEntry(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(t, 2)
	if err := s.Put(k, Meta{Seed: 2}, testArtifacts()); err != nil {
		t.Fatal(err)
	}

	// Flip one byte of a published artifact on disk.
	path := filepath.Join(s.entryDir(k), "trace.bin")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	fresh, err := Open(dir) // bypass the MRU copy
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fresh.Get(k); ok {
		t.Fatal("poisoned entry was served")
	}
	st := fresh.Stats()
	if st.Corrupt != 1 || st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("stats %+v, want corrupt=1 miss=1 hit=0", st)
	}
	// The poisoned entry must have been evicted so publication heals it.
	if _, err := os.Stat(s.entryDir(k)); !os.IsNotExist(err) {
		t.Fatalf("poisoned entry dir still present (err=%v)", err)
	}
	if err := fresh.Put(k, Meta{Seed: 2}, testArtifacts()); err != nil {
		t.Fatalf("healing Put failed: %v", err)
	}
	reread, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reread.Get(k); !ok {
		t.Fatal("healed entry not served")
	}
}

// Truncating an artifact (size mismatch, digest never reached) and
// mangling the manifest itself must also read as misses.
func TestStoreTruncatedAndBadManifest(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(t, 3)
	if err := s.Put(k, Meta{Seed: 3}, testArtifacts()); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(filepath.Join(s.entryDir(k), "trace.bin"), 2); err != nil {
		t.Fatal(err)
	}
	fresh, _ := Open(dir)
	if _, ok := fresh.Get(k); ok {
		t.Fatal("truncated entry was served")
	}

	if err := s.Put(k, Meta{Seed: 3}, testArtifacts()); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(s.entryDir(k), manifestName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	fresh2, _ := Open(dir)
	if _, ok := fresh2.Get(k); ok {
		t.Fatal("entry with mangled manifest was served")
	}
	if st := fresh2.Stats(); st.Corrupt != 1 {
		t.Fatalf("stats %+v, want corrupt=1", st)
	}
}

func TestStoreDuplicatePutAndIndex(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k1, k2 := testKey(t, 4), testKey(t, 5)
	if err := s.Put(k1, Meta{Workload: "a", Seed: 4}, testArtifacts()); err != nil {
		t.Fatal(err)
	}
	// Re-publishing the same key is a no-op win for the first writer.
	if err := s.Put(k1, Meta{Workload: "a", Seed: 4}, testArtifacts()); err != nil {
		t.Fatalf("duplicate Put: %v", err)
	}
	if err := s.Put(k2, Meta{Workload: "b", Seed: 5}, testArtifacts()); err != nil {
		t.Fatal(err)
	}
	idx, err := s.Index()
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 2 {
		t.Fatalf("index has %d entries, want 2 (duplicate Put must not append)", len(idx))
	}
	n, err := s.RebuildIndex()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("RebuildIndex found %d entries, want 2", n)
	}
	idx2, err := s.Index()
	if err != nil {
		t.Fatal(err)
	}
	if len(idx2) != 2 || idx2[0].Key >= idx2[1].Key {
		t.Fatalf("rebuilt index not sorted: %+v", idx2)
	}
}

func TestStoreRejectsBadArtifactNames(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", ".", "..", ".hidden", "a/b", "a\\b", manifestName, "sp ace"} {
		err := s.Put(testKey(t, 6), Meta{}, []Artifact{{Name: bad, Data: []byte("x")}})
		if err == nil {
			t.Errorf("Put accepted illegal artifact name %q", bad)
		}
	}
	if err := s.Put(testKey(t, 6), Meta{}, nil); err == nil {
		t.Error("Put accepted an empty artifact set")
	}
}

func TestMRUEvictionOrder(t *testing.T) {
	m := mruCache{cap: 2}
	keys := []Key{testKey(t, 10), testKey(t, 11), testKey(t, 12)}
	arts := testArtifacts()
	m.put(keys[0], Meta{}, arts, 1)
	m.put(keys[1], Meta{}, arts, 1)
	if m.get(keys[0]) == nil {
		t.Fatal("key 0 evicted while cache not full")
	}
	// key0 is now most recent; inserting key2 must evict key1.
	m.put(keys[2], Meta{}, arts, 1)
	if m.get(keys[1]) != nil {
		t.Fatal("LRU entry (key 1) survived eviction")
	}
	if m.get(keys[0]) == nil || m.get(keys[2]) == nil {
		t.Fatal("recently used entries were evicted")
	}
}

func TestDiffArtifacts(t *testing.T) {
	a := testArtifacts()
	if err := DiffArtifacts(a, testArtifacts()); err != nil {
		t.Fatalf("identical sets diff: %v", err)
	}
	b := testArtifacts()
	b[1].Data = append([]byte(nil), b[1].Data...)
	b[1].Data[3] = 0x7f
	if err := DiffArtifacts(a, b); err == nil {
		t.Fatal("divergent sets did not diff")
	}
	if err := DiffArtifacts(a, a[:1]); err == nil {
		t.Fatal("sets of different length did not diff")
	}
}

// TestScenarioKeyPinned pins one scenario key to a literal so any
// change to the key preimage — spec encoding, platform JSON, fault
// bytes, section framing — shows up as a visible diff here, and any
// profile field or fault scenario must change the key.
func TestScenarioKeyPinned(t *testing.T) {
	const want = "42029fea86574d52db2c6ada30fe3a64de1e4c512e19061bd91b5cc21790ab57"
	spec, err := wldsl.Load("../../testdata/scenarios/workloads/ior-shared.json")
	if err != nil {
		t.Fatal(err)
	}
	on := cluster.Franklin()
	kOn, err := ScenarioKey(spec, on, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := kOn.Hex(); got != want {
		t.Fatalf("ior-shared/Franklin/no faults/seed 1 key = %s, want %s (the key preimage changed: every cached store goes cold)", got, want)
	}
	patched := cluster.Franklin()
	patched.PatchStridedReadahead = true
	kPatched, err := ScenarioKey(spec, patched, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if kPatched == kOn {
		t.Fatal("distinct platforms collided")
	}
	sc := &faults.Scenario{Name: "s", Faults: []faults.Fault{&faults.SlowOST{OST: 1, Factor: 0.5}}}
	kF, err := ScenarioKey(spec, on, sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if kF == kOn {
		t.Fatal("fault scenario did not change the key")
	}
}
