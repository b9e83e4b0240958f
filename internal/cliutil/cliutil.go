// Package cliutil holds the flags every ensembleio CLI shares:
// build-identity reporting (-version) and wall-clock profiling
// (-prof). Both are self-observability — they describe the binary and
// the host run, never the simulated system — so they live strictly on
// the CLI side and nothing here may leak into serialized artifacts.
package cliutil

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"

	"ensembleio/internal/ensemble/campaign"
)

// StringList is a flag.Value that accumulates every use of a
// repeatable flag, such as -spec.
type StringList []string

func (s *StringList) String() string     { return strings.Join(*s, ",") }
func (s *StringList) Set(v string) error { *s = append(*s, v); return nil }

// CacheFlags registers the content-addressed run-cache flags the run
// CLIs share: -cache DIR enables the cascache store (hits serve the
// memoized artifact set, byte-identical to a fresh run), and
// -cache-verify is the paranoid mode that recomputes every hit and
// fails the run on any byte difference.
func CacheFlags() (dir *string, verify *bool) {
	dir = flag.String("cache", "",
		"content-addressed run cache directory (hits are byte-identical to fresh runs)")
	verify = flag.Bool("cache-verify", false,
		"recompute every cache hit and fail on any byte difference (paranoid; implies the run cost of a miss)")
	return dir, verify
}

// ReportFailed logs one line per failed campaign entry (on stderr, with
// the CLI's log prefix) and returns how many failed. The batch CLIs
// call it after writing every other output and exit 1 on a non-zero
// count, so one bad scenario costs only its own line.
func ReportFailed(entries []campaign.Entry, results []campaign.Result) int {
	n := 0
	for i, res := range results {
		if res.Err != nil {
			log.Printf("%s seed %d failed: %v", res.Name, entries[i].Seed, res.Err)
			n++
		}
	}
	return n
}

// Version renders the build's identity from the binary's embedded
// build info: module version plus VCS revision and dirty marker when
// the binary was built from a checkout. Telemetry snapshots and bench
// baselines are attributable to a build through this string.
func Version() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "ensembleio (no build info)"
	}
	v := bi.Main.Version
	if v == "" || v == "(devel)" {
		v = "devel"
	}
	rev, modified, vcsTime := "", false, ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value == "true"
		case "vcs.time":
			vcsTime = s.Value
		}
	}
	out := "ensembleio " + v
	if rev != "" {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		out += " " + rev
		if modified {
			out += "+dirty"
		}
	}
	if vcsTime != "" {
		out += " (" + vcsTime + ")"
	}
	return out + " " + runtime.Version()
}

// StartProfiles begins wall-clock profiling for a -prof run: a CPU
// profile streams to prefix.cpu.pprof and the returned stop function
// finishes it and writes a heap profile to prefix.heap.pprof. An empty
// prefix disables profiling (stop becomes a no-op). Callers defer stop
// and report its error.
func StartProfiles(prefix string) (stop func() error, err error) {
	if prefix == "" {
		return func() error { return nil }, nil
	}
	cpu, err := os.Create(prefix + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		cpu.Close() //lint:allow(errclose) profile file abandoned on setup failure
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := cpu.Close(); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		heap, err := os.Create(prefix + ".heap.pprof")
		if err != nil {
			return err
		}
		// An up-to-date heap profile wants a GC so the allocation
		// snapshot reflects live objects, not garbage.
		runtime.GC()
		if err := pprof.WriteHeapProfile(heap); err != nil {
			heap.Close() //lint:allow(errclose) profile file abandoned on write failure
			return fmt.Errorf("heap profile: %w", err)
		}
		if err := heap.Close(); err != nil {
			return fmt.Errorf("heap profile: %w", err)
		}
		return nil
	}, nil
}

// FormatBytes renders a byte count in binary units (B, KB, MB) for the
// cache summary lines of the batch CLIs.
func FormatBytes(n uint64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}
