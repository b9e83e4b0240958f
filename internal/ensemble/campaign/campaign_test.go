package campaign

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ensembleio/internal/cascache"
	"ensembleio/internal/cluster"
	"ensembleio/internal/faults"
	"ensembleio/internal/wldsl"
)

// testEntries builds a duplicate-heavy grid: nUnique distinct
// scenarios, each submitted dups times, interleaved.
func testEntries(nUnique, dups int) []Entry {
	var out []Entry
	for d := 0; d < dups; d++ {
		for u := 0; u < nUnique; u++ {
			seed := int64(u + 1)
			out = append(out, Entry{
				Name:     fmt.Sprintf("gen%d-seed%d", u, seed),
				Spec:     wldsl.Generate(int64(u)),
				Platform: cluster.Franklin(),
				Seed:     seed,
			})
		}
	}
	return out
}

func TestCampaignDedupAndByteIdentity(t *testing.T) {
	entries := testEntries(3, 2) // 6 entries, 3 unique

	cold, coldStats, err := Run(entries, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if coldStats.Unique != 3 || coldStats.Misses != 3 || coldStats.DupHits != 3 || coldStats.Hits != 0 {
		t.Fatalf("cold stats %+v", coldStats)
	}

	store, err := cascache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	warm1, s1, err := Run(entries, Options{Workers: 1, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if s1.Misses != 3 || s1.Hits != 0 {
		t.Fatalf("first warm pass stats %+v", s1)
	}
	warm2, s2, err := Run(entries, Options{Workers: 4, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Hits != 3 || s2.Misses != 0 || s2.DupHits != 3 {
		t.Fatalf("second warm pass stats %+v", s2)
	}
	if s2.BytesServed == 0 || s2.BytesComputed != 0 {
		t.Fatalf("second warm pass byte accounting %+v", s2)
	}

	// Byte identity across cold, computed-warm, and cache-served-warm,
	// at different worker counts.
	for i := range entries {
		if cold[i].Key != warm1[i].Key || cold[i].Key != warm2[i].Key {
			t.Fatalf("entry %d: keys differ across passes", i)
		}
		if err := cascache.DiffArtifacts(cold[i].Artifacts, warm1[i].Artifacts); err != nil {
			t.Fatalf("entry %d: cold vs computed-warm: %v", i, err)
		}
		if err := cascache.DiffArtifacts(cold[i].Artifacts, warm2[i].Artifacts); err != nil {
			t.Fatalf("entry %d: cold vs cache-served: %v", i, err)
		}
	}

	// Sources land as documented.
	if warm2[0].Source != SourceCache || warm2[3].Source != SourceDup {
		t.Fatalf("sources %q / %q, want cache / dup", warm2[0].Source, warm2[3].Source)
	}

	// Verify mode recomputes every hit and must find them identical.
	if _, _, err := Run(entries, Options{Workers: 2, Store: store, Verify: true}); err != nil {
		t.Fatalf("verify pass: %v", err)
	}
}

func TestCampaignWithFaults(t *testing.T) {
	store, err := cascache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sc := &faults.Scenario{Name: "slow7", Faults: []faults.Fault{&faults.SlowOST{OST: 0, Factor: 0.5}}}
	mk := func() []Entry {
		return []Entry{
			{Name: "plain", Spec: wldsl.Generate(5), Platform: cluster.Franklin(), Seed: 3},
			{Name: "faulty", Spec: wldsl.Generate(5), Platform: cluster.Franklin(), Faults: sc, Seed: 3},
		}
	}
	first, s1, err := Run(mk(), Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if s1.Unique != 2 {
		t.Fatalf("fault scenario did not split the key: %+v", s1)
	}
	second, s2, err := Run(mk(), Options{Store: store, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Hits != 2 {
		t.Fatalf("warm faulted campaign stats %+v", s2)
	}
	for i := range first {
		if err := cascache.DiffArtifacts(first[i].Artifacts, second[i].Artifacts); err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
	}
}

func TestStatsSnapshot(t *testing.T) {
	s := Stats{Scenarios: 6, Unique: 3, Hits: 2, Misses: 1, DupHits: 3, Failed: 1, BytesServed: 100, BytesComputed: 50}
	snap := s.Snapshot()
	if got := snap.Counter("cascache.hits"); got != 2 {
		t.Fatalf("cascache.hits = %v", got)
	}
	if got := snap.Counter("cascache.failed"); got != 1 {
		t.Fatalf("cascache.failed = %v", got)
	}
	if got := snap.Counter("cascache.bytes_served"); got != 100 {
		t.Fatalf("cascache.bytes_served = %v", got)
	}
	for i := 1; i < len(snap.Counters); i++ {
		if snap.Counters[i-1].Name >= snap.Counters[i].Name {
			t.Fatalf("counters not sorted: %q before %q", snap.Counters[i-1].Name, snap.Counters[i].Name)
		}
	}
}

// poisonSpec passes validation but panics inside every rank body: it
// writes through a descriptor it has already closed.
const poisonSpec = `{
  "name": "write-after-close",
  "tasks": 4,
  "path": "/scratch/poison.dat",
  "phases": [
    {"ops": [{"op": "open"}, {"op": "close"}, {"op": "write", "bytes": 1000000}]}
  ]
}`

// TestCampaignContainsPanickingScenario: a poisoned entry fails alone.
// Its error keeps the panic message, its duplicate inherits it, nothing
// of it reaches the store, and every other entry still completes.
func TestCampaignContainsPanickingScenario(t *testing.T) {
	poison, err := wldsl.Parse(strings.NewReader(poisonSpec))
	if err != nil {
		t.Fatal(err)
	}
	good := testEntries(2, 1)
	bad := Entry{Name: "poison", Spec: poison, Platform: cluster.Franklin(), Seed: 1}
	entries := []Entry{good[0], bad, good[1], bad}

	store, err := cascache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := Run(entries, Options{Workers: 2, Store: store})
	if err != nil {
		t.Fatalf("campaign-level error for a per-scenario failure: %v", err)
	}
	want := Stats{Scenarios: 4, Unique: 3, Misses: 3, DupHits: 1, Failed: 2}
	got := stats
	got.BytesServed, got.BytesComputed = 0, 0
	if got != want {
		t.Fatalf("stats %+v, want %+v", got, want)
	}
	for _, i := range []int{1, 3} {
		if res[i].Err == nil || !strings.Contains(res[i].Err.Error(), "posixio: bad file descriptor") {
			t.Errorf("entry %d: err %v, want the rank body's panic message", i, res[i].Err)
		}
		if len(res[i].Artifacts) != 0 {
			t.Errorf("entry %d: failed entry carries %d artifacts", i, len(res[i].Artifacts))
		}
	}
	for _, i := range []int{0, 2} {
		if res[i].Err != nil || len(res[i].Artifacts) == 0 {
			t.Errorf("entry %d: err %v with %d artifacts, want a completed run", i, res[i].Err, len(res[i].Artifacts))
		}
	}
	if _, ok := store.Get(res[1].Key); ok {
		t.Error("failed scenario was published to the store")
	}
	if st := store.Stats(); st.Puts != 2 {
		t.Errorf("store puts %d, want 2 (the good entries only)", st.Puts)
	}
	assertNothingStaged(t, store)

	// A second pass serves the good entries and retries the poison.
	_, again, err := Run(entries, Options{Workers: 1, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if again.Hits != 2 || again.Misses != 1 || again.Failed != 2 {
		t.Fatalf("second pass stats %+v, want 2 hits, 1 miss, 2 failed", again)
	}
}

// entryFile is where the store keeps key k's packed entry.
func entryFile(s *cascache.Store, k cascache.Key) string {
	h := k.Hex()
	return filepath.Join(s.Dir(), h[:2], h+".entry")
}

// artifactRegion finds a named artifact's byte range in a packed entry
// file from its header: an 8-byte magic, the uint32 layout version and
// manifest length, the manifest JSON, then the artifacts in manifest
// order.
func artifactRegion(t *testing.T, file []byte, name string) (off, n int) {
	t.Helper()
	if len(file) < 16 || string(file[:8]) != "EIOCACHE" {
		t.Fatal("not a packed entry file")
	}
	mlen := int(binary.LittleEndian.Uint32(file[12:]))
	var m struct {
		Artifacts []struct {
			Name  string `json:"name"`
			Bytes int    `json:"bytes"`
		} `json:"artifacts"`
	}
	if err := json.Unmarshal(file[16:16+mlen], &m); err != nil {
		t.Fatal(err)
	}
	off = 16 + mlen
	for _, a := range m.Artifacts {
		if a.Name == name {
			return off, a.Bytes
		}
		off += a.Bytes
	}
	t.Fatalf("no artifact %q in the entry", name)
	return 0, 0
}

// TestParallelProbesEvictCorruptEntries: with the store probed on the
// pool, a damaged entry is still evicted and recomputed, never served,
// and every artifact set matches a one-worker run byte for byte.
func TestParallelProbesEvictCorruptEntries(t *testing.T) {
	entries := testEntries(6, 2) // 12 entries, 6 unique
	dir := t.TempDir()
	store, err := cascache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := Run(entries, Options{Workers: 1, Store: store})
	if err != nil {
		t.Fatal(err)
	}

	// Truncate the first entry's file inside its trace.bin; flip a byte
	// in the middle of the second's spans.jsonl.
	first := entryFile(store, ref[0].Key)
	b, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	off, _ := artifactRegion(t, b, cascache.ArtTraceBin)
	if err := os.Truncate(first, int64(off+3)); err != nil {
		t.Fatal(err)
	}
	flip := entryFile(store, ref[1].Key)
	if b, err = os.ReadFile(flip); err != nil {
		t.Fatal(err)
	}
	off, n := artifactRegion(t, b, cascache.ArtSpans)
	b[off+n/2] ^= 0xff
	if err := os.WriteFile(flip, b, 0o644); err != nil {
		t.Fatal(err)
	}

	warm, err := cascache.Open(dir) // a new process: the MRU starts empty
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := Run(entries, Options{Workers: 4, Store: warm})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Unique != 6 || stats.Hits != 6-2 || stats.Misses != 2 {
		t.Fatalf("stats %+v, want 4 hits and 2 misses of 6 unique", stats)
	}
	if st := warm.Stats(); st.Corrupt != 2 || st.Puts != 2 {
		t.Fatalf("store stats %+v, want 2 corrupt entries evicted and republished", st)
	}
	for i, r := range res {
		want := SourceCache
		switch {
		case i >= 6:
			want = SourceDup
		case i < 2:
			want = SourceRun
		}
		if r.Source != want || r.Err != nil {
			t.Errorf("entry %d: source %q err %v, want %q", i, r.Source, r.Err, want)
		}
		if err := cascache.DiffArtifacts(ref[i].Artifacts, r.Artifacts); err != nil {
			t.Errorf("entry %d: %v", i, err)
		}
	}
}

// TestParallelProbesWorkerCountInvariant: Results and Stats of a warm
// campaign do not depend on the worker count.
func TestParallelProbesWorkerCountInvariant(t *testing.T) {
	entries := testEntries(5, 2)
	store, err := cascache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Run(entries, Options{Workers: 2, Store: store}); err != nil {
		t.Fatal(err)
	}
	var ref []Result
	var refStats Stats
	for _, w := range []int{1, 2, 4} {
		store.SetMRUCap(0) // every probe reads and re-checks the disk
		store.SetMRUCap(cascache.DefaultMRUCap)
		res, stats, err := Run(entries, Options{Workers: w, Store: store})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Hits != stats.Unique || stats.Misses != 0 {
			t.Fatalf("workers %d: stats %+v, want every unique key a hit", w, stats)
		}
		if ref == nil {
			ref, refStats = res, stats
			continue
		}
		if stats != refStats {
			t.Errorf("workers %d: stats %+v, workers 1 gave %+v", w, stats, refStats)
		}
		if !reflect.DeepEqual(res, ref) {
			t.Errorf("workers %d: results differ from workers 1", w)
		}
	}
}

// assertNothingStaged fails unless the store's staging directory is
// empty: every entry a campaign staged was committed or discarded.
func assertNothingStaged(t *testing.T, s *cascache.Store) {
	t.Helper()
	left, err := os.ReadDir(filepath.Join(s.Dir(), "tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("%d staged temp files left behind, first %s", len(left), left[0].Name())
	}
}

// entryFiles counts the packed entry files under the store's shards.
func entryFiles(t *testing.T, s *cascache.Store) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(s.Dir(), func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "tmp" {
			return filepath.SkipDir
		}
		if strings.HasSuffix(d.Name(), ".entry") {
			n++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestColdCampaignPublishesInSubmissionOrder: entries are staged on
// the pool but committed serially, so a cold campaign writes the same
// index.jsonl byte for byte at any worker count, leaves exactly one
// entry file per unique key, and no staged temp file.
func TestColdCampaignPublishesInSubmissionOrder(t *testing.T) {
	entries := testEntries(5, 2) // 10 entries, 5 unique
	var ref []byte
	for _, w := range []int{1, 2, 4} {
		store, err := cascache.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		_, stats, err := Run(entries, Options{Workers: w, Store: store})
		if err != nil {
			t.Fatal(err)
		}
		if n := entryFiles(t, store); n != stats.Unique || n != 5 {
			t.Fatalf("workers %d: %d entry files for %d unique keys", w, n, stats.Unique)
		}
		assertNothingStaged(t, store)
		idx, err := os.ReadFile(filepath.Join(store.Dir(), "index.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = idx
			continue
		}
		if !bytes.Equal(idx, ref) {
			t.Errorf("workers %d: index.jsonl differs from workers 1:\n%s\nvs\n%s", w, idx, ref)
		}
	}
}

// TestCampaignPublishFailure: a failed Commit or Stage is the
// campaign's error, reported for the first failing entry in submission
// order, and no staged temp file survives it.
func TestCampaignPublishFailure(t *testing.T) {
	entries := testEntries(5, 1)
	keys := make([]cascache.Key, len(entries))
	for i, e := range entries {
		k, err := cascache.ScenarioKey(e.Spec, e.Platform, e.Faults, e.Seed)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = k
	}

	t.Run("commit", func(t *testing.T) {
		store, err := cascache.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		// A regular file where two entries' shard directories belong
		// makes their Commit fail.
		blocked := map[string]bool{}
		for _, i := range []int{3, 1} {
			shard := filepath.Join(store.Dir(), keys[i].Hex()[:2])
			if err := os.WriteFile(shard, nil, 0o644); err != nil {
				t.Fatal(err)
			}
			blocked[keys[i].Hex()[:2]] = true
		}
		firstBlocked := -1
		for i, k := range keys {
			if blocked[k.Hex()[:2]] {
				firstBlocked = i
				break
			}
		}
		_, _, err = Run(entries, Options{Workers: 2, Store: store})
		if err == nil || !strings.Contains(err.Error(), "publishing "+keys[firstBlocked].Short()) {
			t.Fatalf("err %v, want the publish failure of entry %d (%s)", err, firstBlocked, keys[firstBlocked].Short())
		}
		assertNothingStaged(t, store)
		if st := store.Stats(); st.Puts != uint64(firstBlocked) {
			t.Errorf("%d entries published, want the %d before the failure", st.Puts, firstBlocked)
		}
	})

	t.Run("stage", func(t *testing.T) {
		store, err := cascache.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		tmp := filepath.Join(store.Dir(), "tmp")
		if err := os.Remove(tmp); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(tmp, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err = Run(entries, Options{Workers: 2, Store: store})
		if err == nil || !strings.Contains(err.Error(), "staging "+keys[0].Short()) {
			t.Fatalf("err %v, want the staging failure of entry 0 (%s)", err, keys[0].Short())
		}
		if st := store.Stats(); st.Puts != 0 || entryFiles(t, store) != 0 {
			t.Errorf("store stats %+v: nothing may be published when staging fails", st)
		}
	})
}
