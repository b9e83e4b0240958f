package wldsl

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ensembleio/internal/workloads"
)

// FuzzSpecDecode hammers the spec parser with arbitrary bytes. The
// parser must never panic, and anything it accepts must satisfy the
// grammar's hard bounds — name lengths, non-negative sizes and
// offsets, finite floats — and re-encode to a canonical fixpoint
// (Encode∘Parse∘Encode = Encode). Accepted specs must also compile:
// Validate and Compile accept exactly the same language.
func FuzzSpecDecode(f *testing.F) {
	// One checked-in spec per scenario family seeds the corpus: N-to-1
	// shared-file, N-to-N file-per-process, strided read/modify/write,
	// collective-buffered h5, bursty checkpoint, mixed read/write.
	for _, name := range []string{
		"ior-shared.json", "ior-fpp.json", "madbench.json",
		"gcrm-collective.json", "gcrm-twostage.json",
		"checkpoint-bursty.json", "mixed-rw.json",
	} {
		raw, err := os.ReadFile(filepath.Join(corpusDir, name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	// Near-misses the validator must reject without panicking.
	f.Add([]byte(`{"name":"x","tasks":2,"phases":[{"ops":[{"op":"open"},{"op":"pwrite","bytes":-5}]}]}`))
	f.Add([]byte(`{"name":"x","tasks":2,"phases":[{"ops":[{"op":"open"},{"op":"compute","seconds":1e999}]}]}`))
	f.Add([]byte(`{"name":"` + strings.Repeat("a", workloads.MaxNameLen+1) + `","tasks":2,"phases":[{"ops":[{"op":"open"}]}]}`))
	f.Add([]byte(`{"name":"x","tasks":2,"phases":[{"ops":[{"op":"open"}]}]}{"trailing":1}`))
	f.Add([]byte(`{`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(bytes.NewReader(data))
		if err != nil {
			return // rejecting bad input is fine; panicking is not
		}
		checkBounds(t, s)
		if _, err := workloads.Compile(s); err != nil {
			t.Fatalf("Parse accepted a spec Compile rejects: %v", err)
		}

		var once bytes.Buffer
		if err := Encode(&once, s); err != nil {
			t.Fatalf("re-encoding accepted spec: %v", err)
		}
		s2, err := Parse(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("decoding own encoding: %v", err)
		}
		var twice bytes.Buffer
		if err := Encode(&twice, s2); err != nil {
			t.Fatalf("second re-encode: %v", err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("encode∘parse is not a fixpoint: %d vs %d bytes", once.Len(), twice.Len())
		}
	})
}

// checkBounds asserts the hard grammar bounds directly on an accepted
// spec — a belt-and-suspenders cross-check of Validate, phrased
// independently of its implementation.
func checkBounds(t *testing.T, s *workloads.Spec) {
	t.Helper()
	if s.Name == "" || len(s.Name) > workloads.MaxNameLen {
		t.Fatalf("accepted name length %d outside [1, %d]", len(s.Name), workloads.MaxNameLen)
	}
	if len(s.Path) > workloads.MaxNameLen {
		t.Fatalf("accepted path length %d beyond %d", len(s.Path), workloads.MaxNameLen)
	}
	if s.Tasks < 1 {
		t.Fatalf("accepted non-positive tasks %d", s.Tasks)
	}
	for _, d := range s.Datasets {
		if len(d.Name) > workloads.MaxNameLen || d.RecordBytes < 1 || d.RecordsPerTask < 1 || d.MetaOps < 0 {
			t.Fatalf("accepted out-of-bounds dataset %+v", d)
		}
	}
	for _, ph := range s.Phases {
		if len(ph.Name) > workloads.MaxNameLen || ph.Repeat < 0 {
			t.Fatalf("accepted out-of-bounds phase %q repeat=%d", ph.Name, ph.Repeat)
		}
		for _, op := range ph.Ops {
			if op.Bytes < 0 || op.Count < 0 || len(op.Name) > workloads.MaxNameLen {
				t.Fatalf("accepted out-of-bounds op %+v", op)
			}
			if math.IsNaN(op.Seconds) || math.IsInf(op.Seconds, 0) || op.Seconds < 0 ||
				math.IsNaN(op.Sigma) || math.IsInf(op.Sigma, 0) || op.Sigma < 0 {
				t.Fatalf("accepted non-finite or negative compute params %+v", op)
			}
			if off := op.Offset; off != nil {
				if off.Base < 0 || off.PerRank < 0 || off.PerIter < 0 || off.PerPhase < 0 {
					t.Fatalf("accepted negative offset coefficient %+v", off)
				}
			}
		}
	}
}
