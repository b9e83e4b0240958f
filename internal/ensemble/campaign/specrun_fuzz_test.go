package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"ensembleio/internal/cascache"
	"ensembleio/internal/cluster"
	"ensembleio/internal/ipmio"
	"ensembleio/internal/tracefmt"
	"ensembleio/internal/wldsl"
	"ensembleio/internal/workloads"
)

// Bounds that keep one FuzzSpecRun input cheap to simulate twice.
const (
	fuzzMaxTasks  = 64
	fuzzMaxEvents = 1 << 14
	fuzzMaxBytes  = int64(1) << 37
)

// fuzzSpec is the spec one FuzzSpecRun input names: a wldsl generator
// family and seed when spec is empty, else spec parsed and capped at
// fuzzMaxTasks ranks (a collective's aggregators shrink to a divisor of
// the new rank count). It returns nil for input that parses to no spec.
func fuzzSpec(family uint8, seed int64, spec []byte) *workloads.Spec {
	if len(spec) == 0 {
		return wldsl.GenerateFamily(int(family), seed)
	}
	s, err := wldsl.Parse(bytes.NewReader(spec))
	if err != nil {
		return nil
	}
	if s.Tasks > fuzzMaxTasks {
		s.Tasks = fuzzMaxTasks
		if c := s.Collective; c != nil && c.Aggregators > 0 {
			c.Aggregators = min(c.Aggregators, s.Tasks)
			for s.Tasks%c.Aggregators != 0 {
				c.Aggregators--
			}
		}
	}
	return s
}

// FuzzSpecRun runs fuzzer-chosen specs end to end through the
// campaign path: a generator family and seed, or a mutated corpus
// spec, at most 64 ranks. Every spec Validate accepts must run to
// completion or fail as its Result's Err, never crash the process; a
// second run must give the same outcome and the same artifact bytes;
// and the binary and JSONL traces must decode and re-encode to the
// same bytes, through the file table and through Merge of a per-rank
// split.
func FuzzSpecRun(f *testing.F) {
	for fam := 0; fam < wldsl.Families; fam++ {
		f.Add(uint8(fam), int64(fam+1), []byte(nil))
	}
	paths, _ := filepath.Glob(filepath.Join("..", "..", "..", "testdata", "scenarios", "workloads", "*.json"))
	for _, path := range paths {
		if data, err := os.ReadFile(path); err == nil {
			f.Add(uint8(0), int64(1), data)
		}
	}
	// Validates, then panics in every rank: a write after close.
	f.Add(uint8(0), int64(1), []byte(`{"name":"closed","tasks":2,"phases":[{"ops":[{"op":"open"},{"op":"close"},{"op":"write","bytes":4096}]}]}`))

	f.Fuzz(func(t *testing.T, family uint8, seed int64, spec []byte) {
		s := fuzzSpec(family, seed, spec)
		if s == nil || s.Validate() != nil {
			return
		}
		prog, err := workloads.Compile(s)
		if err != nil {
			t.Fatalf("Validate accepted a spec Compile rejects: %v", err)
		}
		if prog.Events() > fuzzMaxEvents || prog.TotalBytes() > fuzzMaxBytes {
			return
		}
		entry := []Entry{{Name: s.Name, Spec: s, Platform: cluster.Franklin(), Seed: seed}}
		a, _, errA := Run(entry, Options{Workers: 1})
		b, _, errB := Run(entry, Options{Workers: 1})
		if errA != nil || errB != nil {
			t.Fatalf("campaign errors %v, %v: a failed run must land in its Result", errA, errB)
		}
		ra, rb := a[0], b[0]
		if (ra.Err == nil) != (rb.Err == nil) || ra.Err != nil && ra.Err.Error() != rb.Err.Error() {
			t.Fatalf("two runs ended differently: %v vs %v", ra.Err, rb.Err)
		}
		if ra.Err != nil {
			return
		}
		if err := cascache.DiffArtifacts(ra.Artifacts, rb.Artifacts); err != nil {
			t.Fatalf("two runs differ: %v", err)
		}
		checkTraceRoundTrips(t, ra.Artifacts)
	})
}

// checkTraceRoundTrips decodes a run's binary and JSONL traces,
// re-encodes each to the same bytes, and checks that splitting the
// trace by rank parity into two traces with file tables of their own
// and merging them back encodes like the same events stable-sorted
// under the original table.
func checkTraceRoundTrips(t *testing.T, arts []cascache.Artifact) {
	t.Helper()
	art := func(name string) []byte {
		for _, a := range arts {
			if a.Name == name {
				return a.Data
			}
		}
		t.Fatalf("no %s artifact", name)
		return nil
	}
	bin := art(cascache.ArtTraceBin)
	events, marks, files, err := tracefmt.ReadBinary(bytes.NewReader(bin))
	if err != nil {
		t.Fatalf("decoding the run's binary trace: %v", err)
	}
	var again bytes.Buffer
	if err := tracefmt.WriteBinary(&again, events, marks, files); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), bin) {
		t.Fatalf("binary trace re-encodes to %d bytes, not its own %d", again.Len(), len(bin))
	}
	jsonl := art(cascache.ArtTraceJSON)
	jev, jmk, jfiles, err := tracefmt.ReadJSONL(bytes.NewReader(jsonl))
	if err != nil {
		t.Fatalf("decoding the run's JSONL trace: %v", err)
	}
	again.Reset()
	if err := tracefmt.WriteJSONL(&again, jev, jmk, jfiles); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), jsonl) {
		t.Fatalf("JSONL trace re-encodes to %d bytes, not its own %d", again.Len(), len(jsonl))
	}

	var parts [2]tracefmt.Trace
	var want []ipmio.Event
	for half := range parts {
		parts[half].Files = &ipmio.Files{}
		for _, e := range events {
			if int(e.Rank)&1 != half {
				continue
			}
			want = append(want, e)
			e.File = parts[half].Files.Intern(files.Name(e.File))
			parts[half].Events = append(parts[half].Events, e)
		}
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].Start < want[j].Start })
	merged, mfiles := tracefmt.Merge(parts[0], parts[1])
	var got, exp bytes.Buffer
	if err := tracefmt.WriteBinary(&got, merged, marks, mfiles); err != nil {
		t.Fatal(err)
	}
	if err := tracefmt.WriteBinary(&exp, want, marks, files); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), exp.Bytes()) {
		t.Fatalf("merged per-rank traces encode to %d bytes, want %d", got.Len(), exp.Len())
	}
}
