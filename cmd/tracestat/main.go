// Command tracestat reads saved runs as ensembles. It is the reader
// half of the two-step method: wlrun records a run's trace (-trace)
// and telemetry snapshot (-telemetry), and tracestat reads them back.
// It detects each input's kind and picks its report from the kinds:
//
//	tracestat [-op OP] [-log] [-diagram] TRACE [SNAPSHOT]
//	tracestat TRACE TRACE
//	tracestat PROFILE PROFILE
//	tracestat [-top N] [-tenant NAME] [-spans FILE] [SNAPSHOT ...]
//	tracestat CHROME
//
// One trace gets the analysis: per-op and per-phase tables, moments,
// histogram and modes, sec/MB write rates, access patterns, the trace
// diagram and the advisor's findings; with the run's snapshot the
// per-OST server counters localize a straggler OST. Two traces get the
// reproducibility check (per-op KS and Wasserstein distances, mode
// alignment, a verdict), two profiles a comparison of per-op means and
// p95s. Snapshots fold into hot-spot tables. A Chrome trace-event
// export (wlrun -traceformat chrome) gets a schema check.
//
// A binary trace starts with the IPMB1 magic. Every other kind is told
// by the keys of its first JSON value: r or type for a JSONL trace,
// durations or rates for a profile, counters, gauges or hists (or none)
// for a snapshot, traceEvents or displayTimeUnit for a Chrome export.
// Any other mix of inputs is a usage error. The exit status is 1 on an
// error and on a DIFFER verdict.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strings"

	"ensembleio/internal/cliutil"
	"ensembleio/internal/ipmio"
	"ensembleio/internal/tracefmt"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracestat: ")
	os.Exit(run(os.Args[1:], os.Stdout))
}

// options are the report flags.
type options struct {
	op            string
	log, diagram  bool
	top           int
	spans, tenant string
}

// run parses args, writes the report the inputs select to stdout,
// and returns the exit status.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("tracestat", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.op, "op", "", "restrict the analysis to one op: open, close, read, write, seek, fsync")
	fs.BoolVar(&o.log, "log", false, "log-binned histogram (for heavy-tailed traces)")
	fs.BoolVar(&o.diagram, "diagram", false, "render the trace diagram")
	fs.IntVar(&o.top, "top", 10, "rows per snapshot table")
	fs.StringVar(&o.spans, "spans", "", "also summarize this span JSONL file by category")
	fs.StringVar(&o.tenant, "tenant", "", "filter a multi-tenant session to one tenant (tenant.NAME.* counters, NAME/ spans)")
	profOut := fs.String("prof", "", "write wall-clock CPU/heap profiles to PREFIX.cpu.pprof / PREFIX.heap.pprof")
	version := fs.Bool("version", false, "print build version and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, cliutil.Version())
		return 0
	}
	stopProf, err := cliutil.StartProfiles(*profOut)
	if err != nil {
		log.Print(err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			log.Print(err)
		}
	}()

	paths := fs.Args()
	kinds, got := make([]kind, len(paths)), make([]string, len(paths))
	for i, p := range paths {
		if kinds[i], err = readFile(p, sniff); err != nil {
			log.Print(err)
			return 1
		}
		got[i] = fmt.Sprintf("%s (%s)", p, kinds[i])
	}
	same := true
	switch n := len(paths); {
	case n == 0 && o.spans != "" || n > 0 && slices.IndexFunc(kinds, func(k kind) bool { return k != snapshot }) < 0:
		err = top(stdout, paths, o)
	case slices.Equal(kinds, []kind{chrome}):
		var events int
		if events, err = readFile(paths[0], tracefmt.ValidateChromeTrace); err == nil {
			fmt.Fprintf(stdout, "%s: valid Chrome trace, %d events\n", paths[0], events)
		}
	case n == 2 && kinds[0].isTrace() && kinds[1].isTrace():
		same, err = compareTraces(stdout, paths, kinds)
	case slices.Equal(kinds, []kind{profile, profile}):
		same, err = compareProfiles(stdout, paths)
	case n > 0 && kinds[0].isTrace() && (n == 1 || slices.Equal(kinds[1:], []kind{snapshot})):
		err = analyse(stdout, paths, kinds[0], o)
	default:
		err = fmt.Errorf("usage: tracestat [flags] TRACE [SNAPSHOT] | TRACE TRACE | PROFILE PROFILE | SNAPSHOT... | CHROME; got [%s]",
			strings.Join(got, ", "))
	}
	if err != nil {
		log.Print(err)
		return 1
	}
	if !same {
		return 1
	}
	return 0
}

// kind is an input file's detected artifact kind.
type kind string

const (
	unknown     kind = "unknown"
	binaryTrace kind = "binary trace"
	jsonlTrace  kind = "JSONL trace"
	profile     kind = "profile"
	snapshot    kind = "snapshot"
	chrome      kind = "Chrome trace"
)

func (k kind) isTrace() bool { return k == binaryTrace || k == jsonlTrace }

// jsonKinds maps a key of a file's first JSON value to its kind.
var jsonKinds = map[string]kind{
	"r": jsonlTrace, "type": jsonlTrace,
	"durations": profile, "rates": profile,
	"counters": snapshot, "gauges": snapshot, "hists": snapshot,
	"traceEvents": chrome, "displayTimeUnit": chrome,
}

// sniff detects an input's kind: the binary trace magic, or else the
// first known key of its first JSON value (an empty object is an
// empty snapshot). It reads no further than that key.
func sniff(r io.Reader) (kind, error) {
	br := bufio.NewReader(r)
	if magic, _ := br.Peek(len(tracefmt.BinaryMagic)); string(magic) == tracefmt.BinaryMagic {
		return binaryTrace, nil
	}
	dec := json.NewDecoder(br)
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return unknown, nil
	}
	keys := 0
	for ; dec.More(); keys++ {
		key, err := dec.Token()
		if err != nil {
			return unknown, nil
		}
		if k, ok := jsonKinds[key.(string)]; ok {
			return k, nil
		}
		if err := dec.Decode(new(json.RawMessage)); err != nil {
			return unknown, nil
		}
	}
	if keys == 0 {
		return snapshot, nil
	}
	return unknown, nil
}

// readFile opens path and decodes it with read, naming the file in a
// decode error.
func readFile[T any](path string, read func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close() //lint:allow(errclose) file opened read-only
	v, err := read(bufio.NewReader(f))
	if err != nil {
		return v, fmt.Errorf("%s: %w", path, err)
	}
	return v, nil
}

// loadTrace reads a binary or JSONL trace's events and phase marks.
func loadTrace(path string, k kind) ([]ipmio.Event, []ipmio.PhaseMark, error) {
	read := tracefmt.ReadBinary
	if k == jsonlTrace {
		read = tracefmt.ReadJSONL
	}
	var marks []ipmio.PhaseMark
	events, err := readFile(path, func(r io.Reader) (events []ipmio.Event, err error) {
		events, marks, _, err = read(r)
		return events, err
	})
	return events, marks, err
}
