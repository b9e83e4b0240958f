package cliutil

import (
	"bytes"
	"errors"
	"flag"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ensembleio/internal/ensemble/campaign"
)

// TestReportFailed: one log line per failed entry, naming its seed and
// error; completed entries stay silent.
func TestReportFailed(t *testing.T) {
	var buf bytes.Buffer
	log.SetOutput(&buf)
	defer log.SetOutput(os.Stderr)
	entries := []campaign.Entry{{Seed: 1}, {Seed: 2}, {Seed: 3}}
	results := []campaign.Result{
		{Name: "ok"},
		{Name: "bad", Err: errors.New("simulation panicked: boom")},
		{Name: "bad", Err: errors.New("simulation panicked: boom")},
	}
	if n := ReportFailed(entries, results); n != 2 {
		t.Fatalf("ReportFailed = %d, want 2", n)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], "bad seed 2 failed: simulation panicked: boom") ||
		!strings.Contains(lines[1], "bad seed 3 failed") {
		t.Fatalf("log output %q", buf.String())
	}
}

func TestVersionNonEmpty(t *testing.T) {
	v := Version()
	if !strings.HasPrefix(v, "ensembleio ") {
		t.Fatalf("version %q lacks the module prefix", v)
	}
	if !strings.Contains(v, "go1") {
		t.Fatalf("version %q lacks the toolchain", v)
	}
}

func TestStartProfilesDisabled(t *testing.T) {
	stop, err := StartProfiles("")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

func TestStartProfilesWritesFiles(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "prof")
	stop, err := StartProfiles(prefix)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, suffix := range []string{".cpu.pprof", ".heap.pprof"} {
		st, err := os.Stat(prefix + suffix)
		if err != nil {
			t.Fatalf("%s missing: %v", suffix, err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s is empty", suffix)
		}
	}
}

func TestFormatBytes(t *testing.T) {
	for _, c := range []struct {
		n    uint64
		want string
	}{
		{0, "0 B"},
		{1023, "1023 B"},
		{1024, "1.0 KB"},
		{1536, "1.5 KB"},
		{1<<20 - 1, "1024.0 KB"},
		{1 << 20, "1.0 MB"},
		{5 << 30, "5120.0 MB"},
	} {
		if got := FormatBytes(c.n); got != c.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}

func TestStringListAccumulates(t *testing.T) {
	var specs StringList
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.Var(&specs, "spec", "")
	if err := fs.Parse([]string{"-spec", "a.json", "-spec", "b.json"}); err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0] != "a.json" || specs[1] != "b.json" || specs.String() != "a.json,b.json" {
		t.Errorf("StringList = %q", specs)
	}
}
