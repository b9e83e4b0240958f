package main

import (
	"fmt"
	"io"

	"ensembleio"
	"ensembleio/internal/analysis"
	"ensembleio/internal/ensemble"
	"ensembleio/internal/ipmio"
	"ensembleio/internal/report"
	"ensembleio/internal/sim"
	"ensembleio/internal/tracefmt"
)

// analyse writes the analysis of paths[0], a trace of kind k, with the
// snapshot paths[1] when given. Its reports follow the data:
//   - a per-phase table (duration, read median and p95, write median)
//     whenever the trace carries phase marks;
//   - the moments of the selected population, its histogram and modes
//     (moments only when every selected duration is zero, as for seeks);
//   - size-normalized sec/MB histograms of data and metadata writes,
//     with the median per-task data rate, whenever writes fall on both
//     sides of the 64 KiB small-I/O threshold (the GCRM presentation of
//     Figure 6).
func analyse(w io.Writer, paths []string, k kind, o options) error {
	events, marks, err := loadTrace(paths[0], k)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: %d events, %d phase marks\n\n", paths[0], len(events), len(marks))
	var snap *ensembleio.TelemetrySnapshot
	end := analysis.TraceEnd(events)
	if len(paths) == 2 {
		if snap, err = readFile(paths[1], tracefmt.ReadMetrics); err != nil {
			return err
		}
		end = sim.Time(snap.Counter("sim.virtual_seconds"))
	}

	var filter func(ipmio.Event) bool
	if o.op != "" {
		op, ok := ipmio.ParseOp(o.op)
		if !ok {
			return fmt.Errorf("unknown op %q", o.op)
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
	report.Table(w, rows)
	if len(marks) > 0 {
		fmt.Fprintln(w)
		report.Table(w, phaseTable(analysis.Phases(events, marks, end)))
	}

	d := analysis.Durations(events, filter)
	// All-zero durations (seeks) have moments but no histogram to bin.
	if d.Len() > 0 {
		fmt.Fprintln(w, "\ndurations:", d.Moments())
	}
	if d.Len() > 0 && d.Max() > 0 {
		fmt.Fprintln(w)
		var h *ensemble.Histogram
		if o.log {
			lo := d.Min()
			if lo <= 0 {
				lo = 1e-6
			}
			h = ensemble.NewHistogram(ensemble.LogBins(lo, d.Max()*1.01, 4))
		} else {
			h = ensemble.NewHistogram(ensemble.LinearBins(0, d.Max()*1.01, 60))
		}
		h.AddAll(d)
		report.Histogram(w, "durations (s)", h)
		modes := h.Modes(ensemble.ModeOpts{SmoothRadius: 2, MinProminence: 0.1, MinMass: 0.04})
		if len(modes) > 0 {
			fmt.Fprintln(w)
			report.Table(w, report.ModeTable(modes, "s"))
		}
	}

	writeRates(w, events)

	if o.diagram {
		n := 0
		for _, e := range events {
			n = max(n, int(e.Rank)+1)
		}
		fmt.Fprintln(w, "\ntrace diagram (W=write R=read M=mixed .=idle):")
		fmt.Fprint(w, analysis.TraceDiagram(events, n, 100, 24, analysis.TraceEnd(events)))
	}

	// Online pattern classification per op — the hint stream a pattern-
	// aware file system would consume.
	pd := ipmio.NewPatternDetector()
	for _, e := range events {
		pd.Observe(e)
	}
	fmt.Fprintln(w, "\naccess patterns:")
	for _, op := range []ipmio.Op{ipmio.OpRead, ipmio.OpWrite} {
		if s := pd.Summarize(op); s.Streams > 0 {
			fmt.Fprintf(w, "  %-5s %s\n", op, s)
		}
	}

	if findings := ensembleio.DiagnoseTrace(events, marks, snap); len(findings) > 0 {
		fmt.Fprintln(w, "\nadvisor findings:")
		for _, f := range findings {
			fmt.Fprintf(w, "  %s\n", f)
		}
	}
	return nil
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
func writeRates(w io.Writer, events []ipmio.Event) {
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
	fmt.Fprintln(w)
	report.Histogram(w, "data writes, sec/MB (left = fast)", h)
	fmt.Fprintf(w, "median per-task rate: %.2f MB/s\n\n", 1/data.Quantile(0.5))
	h = ensemble.NewHistogram(ensemble.LogBins(1e-3, 1e5, 4))
	h.AddAll(meta)
	report.Histogram(w, "metadata writes, sec/MB", h)
}
