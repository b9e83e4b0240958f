// Command tracestat analyses a saved IPM-I/O trace: per-operation
// moments, histograms (linear or log bins), detected modes, the trace
// diagram, and the advisor's findings. It is the analysis half of the
// two-step method: wlrun records a run's trace (-trace) and telemetry
// snapshot (-telemetry), and tracestat reads them back. It
// auto-detects the binary and JSONL trace formats.
//
// Usage:
//
//	tracestat [-op read|write] [-log] [-diagram] [-ranks N] TRACE [SNAPSHOT]
//	tracestat -validate-chrome FILE
//
// SNAPSHOT is the run's telemetry snapshot, the file wlrun -telemetry
// writes. With it the diagnosis is exactly the live run's: the per-OST
// server counters localize a straggler OST. Without it straggler-OST
// localization stays silent.
//
// The reports follow the data, with no flag to pick them:
//   - a per-phase table (duration, read median and p95, write median)
//     whenever the trace carries phase marks;
//   - the moments of the selected population, its histogram and modes;
//   - size-normalized sec/MB histograms of data and metadata writes,
//     with the median per-task data rate, whenever writes fall on both
//     sides of the 64 KiB small-I/O threshold (the GCRM presentation of
//     Figure 6).
//
// -validate-chrome schema-checks a Chrome trace-event export (the
// format wlrun -traceformat chrome writes) instead of analysing an
// IPM-I/O trace; CI's trace-smoke target runs it over exporter output.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"

	"ensembleio"
	"ensembleio/internal/analysis"
	"ensembleio/internal/cliutil"
	"ensembleio/internal/ensemble"
	"ensembleio/internal/ipmio"
	"ensembleio/internal/report"
	"ensembleio/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracestat: ")
	var (
		opName  = flag.String("op", "", "restrict to one op: open, close, read, write, seek, fsync")
		logBins = flag.Bool("log", false, "log-binned histogram (for heavy-tailed traces)")
		diagram = flag.Bool("diagram", false, "render the trace diagram")
		ranks   = flag.Int("ranks", 0, "rank count for the diagram (default: max rank + 1)")
		chrome  = flag.Bool("validate-chrome", false, "validate FILE as Chrome trace-event JSON and exit")
		profOut = flag.String("prof", "", "write wall-clock CPU/heap profiles to PREFIX.cpu.pprof / PREFIX.heap.pprof")
		version = flag.Bool("version", false, "print build version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(cliutil.Version())
		return
	}
	if n := flag.NArg(); n < 1 || n > 2 || (*chrome && n != 1) {
		log.Fatal("usage: tracestat [flags] TRACE [SNAPSHOT] | tracestat -validate-chrome FILE")
	}
	stopProf, err := cliutil.StartProfiles(*profOut)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			log.Print(err)
		}
	}()
	if *chrome {
		n, err := validateChrome(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: valid Chrome trace, %d events\n", flag.Arg(0), n)
		return
	}

	events, marks, err := load(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d events, %d phase marks\n\n", flag.Arg(0), len(events), len(marks))
	var snap *ensembleio.TelemetrySnapshot
	end := analysis.TraceEnd(events)
	if flag.NArg() == 2 {
		if snap, err = loadSnapshot(flag.Arg(1)); err != nil {
			log.Fatal(err)
		}
		end = sim.Time(snap.Counter("sim.virtual_seconds"))
	}

	var filter func(ipmio.Event) bool
	if *opName != "" {
		op, ok := ipmio.ParseOp(*opName)
		if !ok {
			log.Fatalf("unknown op %q", *opName)
		}
		filter = analysis.IsOp(op)
	}

	// Per-op summary table.
	rows := [][]string{{"op", "n", "bytes (MB)", "med (s)", "p95 (s)", "max (s)"}}
	for op := ensembleio.OpOpen; op <= ensembleio.OpFsync; op++ {
		d := ensemble.NewDataset(nil)
		var bytes int64
		for _, e := range events {
			if e.Op == op {
				d.Add(float64(e.Dur))
				bytes += e.Bytes
			}
		}
		if d.Len() == 0 {
			continue
		}
		rows = append(rows, []string{
			op.String(), fmt.Sprint(d.Len()), report.F(float64(bytes)/1e6, 0),
			report.F(d.Quantile(0.5), 3), report.F(d.Quantile(0.95), 3), report.F(d.Max(), 3),
		})
	}
	report.Table(os.Stdout, rows)
	if len(marks) > 0 {
		fmt.Println()
		report.Table(os.Stdout, phaseTable(analysis.Phases(events, marks, end)))
	}

	d := analysis.Durations(events, filter)
	if d.Len() > 0 {
		fmt.Println("\ndurations:", d.Moments())
		fmt.Println()
		var h *ensemble.Histogram
		if *logBins {
			lo := d.Min()
			if lo <= 0 {
				lo = 1e-6
			}
			h = ensemble.NewHistogram(ensemble.LogBins(lo, d.Max()*1.01, 4))
		} else {
			h = ensemble.NewHistogram(ensemble.LinearBins(0, d.Max()*1.01, 60))
		}
		h.AddAll(d)
		report.Histogram(os.Stdout, "durations (s)", h)
		modes := h.Modes(ensemble.ModeOpts{SmoothRadius: 2, MinProminence: 0.1, MinMass: 0.04})
		if len(modes) > 0 {
			fmt.Println()
			report.Table(os.Stdout, report.ModeTable(modes, "s"))
		}
	}

	writeRates(events)

	if *diagram {
		n := *ranks
		for _, e := range events {
			n = max(n, int(e.Rank)+1)
		}
		fmt.Println("\ntrace diagram (W=write R=read M=mixed .=idle):")
		fmt.Print(analysis.TraceDiagram(events, n, 100, 24, analysis.TraceEnd(events)))
	}

	// Online pattern classification per op — the hint stream a pattern-
	// aware file system would consume.
	pd := ipmio.NewPatternDetector()
	for _, e := range events {
		pd.Observe(e)
	}
	fmt.Println("\naccess patterns:")
	for _, op := range []ipmio.Op{ipmio.OpRead, ipmio.OpWrite} {
		if s := pd.Summarize(op); s.Streams > 0 {
			fmt.Printf("  %-5s %s\n", op, s)
		}
	}

	if findings := ensembleio.DiagnoseTrace(events, marks, snap); len(findings) > 0 {
		fmt.Println("\nadvisor findings:")
		for _, f := range findings {
			fmt.Printf("  %s\n", f)
		}
	}
}

// smallIOBytes is the advisor's metadata-class write threshold.
const smallIOBytes = 64 << 10

// phaseTable renders one row per barrier-delimited phase: its duration
// and the median and p95 read and median write call durations.
func phaseTable(phases []analysis.Phase) [][]string {
	rows := [][]string{{"phase", "duration (s)", "read med (s)", "read p95 (s)", "write med (s)"}}
	for _, ph := range phases {
		reads := analysis.Durations(ph.Events, analysis.IsOp(ipmio.OpRead))
		writes := analysis.Durations(ph.Events, analysis.IsOp(ipmio.OpWrite))
		row := []string{ph.Name, report.F(float64(ph.EndT-ph.StartT), 1), "-", "-", "-"}
		if reads.Len() > 0 {
			row[2], row[3] = report.F(reads.Quantile(0.5), 1), report.F(reads.Quantile(0.95), 1)
		}
		if writes.Len() > 0 {
			row[4] = report.F(writes.Quantile(0.5), 1)
		}
		rows = append(rows, row)
	}
	return rows
}

// writeRates prints the size-normalized (sec/MB) histograms of data
// and metadata writes and the median per-task data rate, when the
// trace has writes on both sides of the small-I/O threshold.
func writeRates(events []ipmio.Event) {
	data := analysis.SecPerMB(events, func(e ipmio.Event) bool {
		return e.Op == ipmio.OpWrite && e.Bytes > smallIOBytes
	})
	meta := analysis.SecPerMB(events, func(e ipmio.Event) bool {
		return e.Op == ipmio.OpWrite && e.Bytes <= smallIOBytes
	})
	if data.Len() == 0 || meta.Len() == 0 {
		return
	}
	h := ensemble.NewHistogram(ensemble.LogBins(1e-3, 1e3, 4))
	h.AddAll(data)
	fmt.Println()
	report.Histogram(os.Stdout, "data writes, sec/MB (left = fast)", h)
	fmt.Printf("median per-task rate: %.2f MB/s\n\n", 1/data.Quantile(0.5))
	h = ensemble.NewHistogram(ensemble.LogBins(1e-3, 1e5, 4))
	h.AddAll(meta)
	report.Histogram(os.Stdout, "metadata writes, sec/MB", h)
}

// loadSnapshot reads a telemetry snapshot file.
func loadSnapshot(path string) (*ensembleio.TelemetrySnapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //lint:allow(errclose) file opened read-only
	snap, err := ensembleio.LoadTelemetry(bufio.NewReader(f))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return snap, nil
}

// validateChrome schema-checks a Chrome trace-event JSON file.
func validateChrome(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close() //lint:allow(errclose) file opened read-only
	return ensembleio.ValidateChromeTrace(bufio.NewReader(f))
}

// load auto-detects the trace format by its first byte ('{' = JSONL).
func load(path string) ([]ipmio.Event, []ipmio.PhaseMark, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close() //lint:allow(errclose) file opened read-only
	br := bufio.NewReader(f)
	first, err := br.Peek(1)
	if err != nil {
		return nil, nil, fmt.Errorf("empty trace: %w", err)
	}
	load := ensembleio.LoadTrace
	if first[0] == '{' {
		load = ensembleio.LoadTraceJSON
	}
	events, marks, _, err := load(br)
	return events, marks, err
}
