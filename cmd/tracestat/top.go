package main

import (
	"cmp"
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"

	"ensembleio/internal/cliutil"
	"ensembleio/internal/ensemble/campaign"
	"ensembleio/internal/report"
	"ensembleio/internal/telemetry"
	"ensembleio/internal/tracefmt"
)

// top writes the hot-spot tables of the snapshot files in paths — the
// "where did the virtual time go" view over one run or an aggregate of
// many — and, with o.spans set, the span time by category. Each tenant
// of a multi-tenant session (ensembleduel) gets its own
// fast-forwarded-fraction line, and o.tenant restricts every table and
// the spans to one tenant's slice.
func top(w io.Writer, paths []string, o options) error {
	agg, err := aggregate(paths)
	if err != nil {
		return err
	}
	if agg != nil {
		printFastForward(w, agg, o.tenant)
		if line, ok := cacheEffectivenessLine(agg); ok {
			fmt.Fprintf(w, "%s\n\n", line)
		}
		if o.tenant != "" {
			agg = filterTenant(agg, o.tenant)
		}
		printCounters(w, agg, o.top)
		printGauges(w, agg)
		printHists(w, agg, o.top)
		printOSTs(w, agg, o.top)
	}
	if o.spans != "" {
		return printSpans(w, o.spans, o.top, o.tenant)
	}
	return nil
}

// aggregate folds every snapshot file into one: counters sum, gauges
// take the max, histogram summaries merge (bins are dropped — the
// per-decade layout is only meaningful within one run). Min and max
// fold in only from histograms with a positive observation: one whose
// observations were all non-positive carries a zero min and max.
// Returns nil when no files were given.
func aggregate(paths []string) (*telemetry.Snapshot, error) {
	if len(paths) == 0 {
		return nil, nil
	}
	counters := map[string]float64{}
	gauges := map[string]telemetry.GaugeSnap{}
	hists := map[string]telemetry.HistSnap{}
	for _, path := range paths {
		snap, err := readFile(path, tracefmt.ReadMetrics)
		if err != nil {
			return nil, err
		}
		for _, c := range snap.Counters {
			counters[c.Name] += c.Value
		}
		for _, g := range snap.Gauges {
			if cur, ok := gauges[g.Name]; ok {
				g.Value, g.Max = max(cur.Value, g.Value), max(cur.Max, g.Max)
			}
			gauges[g.Name] = g
		}
		for _, h := range snap.Hists {
			cur, ok := hists[h.Name]
			if !ok {
				h.Bins = nil
				hists[h.Name] = h
				continue
			}
			if h.Count > h.Under {
				if cur.Count == cur.Under {
					cur.Min, cur.Max = h.Min, h.Max
				}
				cur.Min, cur.Max = min(cur.Min, h.Min), max(cur.Max, h.Max)
			}
			cur.Count += h.Count
			cur.Under += h.Under
			cur.Sum += h.Sum
			hists[h.Name] = cur
		}
	}
	out := &telemetry.Snapshot{}
	for _, name := range slices.Sorted(maps.Keys(counters)) {
		out.Counters = append(out.Counters, telemetry.CounterSnap{Name: name, Value: counters[name]})
	}
	for _, name := range slices.Sorted(maps.Keys(gauges)) {
		out.Gauges = append(out.Gauges, gauges[name])
	}
	for _, name := range slices.Sorted(maps.Keys(hists)) {
		out.Hists = append(out.Hists, hists[name])
	}
	return out, nil
}

// printFastForward reports how much of the aggregate's virtual time
// the fabric crossed in single analytic jumps — the headline for the
// fast path — then the same for each tenant of a multi-tenant session
// over its own window (with name set, for that tenant only). Runs
// predating the sim.virtual_seconds counter (or with no fabric
// activity) print nothing.
func printFastForward(w io.Writer, s *telemetry.Snapshot, name string) {
	if line, ok := fastForwardLine(s, "sim."); ok {
		fmt.Fprintf(w, "%s\n\n", line)
	}
	seen, printed := map[string]bool{}, false
	for _, c := range s.Counters {
		rest, ok := strings.CutPrefix(c.Name, "tenant.")
		tn, _, ok2 := strings.Cut(rest, ".")
		if !ok || !ok2 || seen[tn] || name != "" && tn != name {
			continue
		}
		seen[tn] = true
		if line, ok := fastForwardLine(s, "tenant."+tn+"."); ok {
			fmt.Fprintf(w, "tenant %s: %s\n", tn, line)
			printed = true
		}
	}
	if printed {
		fmt.Fprintln(w)
	}
}

// fastForwardLine summarizes the prefix's virtual_seconds, ff_seconds
// and ff_jumps counters, if its virtual time is positive.
func fastForwardLine(s *telemetry.Snapshot, prefix string) (string, bool) {
	total, ff := s.Counter(prefix+"virtual_seconds"), s.Counter(prefix+"ff_seconds")
	if total <= 0 {
		return "", false
	}
	return fmt.Sprintf("fast-forwarded %s of %s virtual seconds (%.1f%%) in %.0f jumps",
		report.F(ff, 1), report.F(total, 1), 100*ff/total, s.Counter(prefix+"ff_jumps")), true
}

// cacheEffectivenessLine is the one-line cache summary of a snapshot
// that carries the cascache.* counter family (written by
// ensemblecampaign -telemetry; aggregates across files like any other
// counters). Snapshots without the family have none.
func cacheEffectivenessLine(s *telemetry.Snapshot) (string, bool) {
	get := func(metric string) float64 { return s.Counter(campaign.CounterPrefix + metric) }
	scenarios := get("scenarios")
	if scenarios <= 0 {
		return "", false
	}
	hits, dups, misses := get("hits"), get("dup_hits"), get("misses")
	served := hits + dups
	return fmt.Sprintf("cache: served %.0f of %.0f scenario(s) (%.1f%%) — %.0f hit(s), %.0f dup(s), %.0f miss(es); %s served, %s computed",
		served, scenarios, 100*served/scenarios, hits, dups, misses,
		cliutil.FormatBytes(uint64(get("bytes_served"))), cliutil.FormatBytes(uint64(get("bytes_computed")))), true
}

// filterTenant restricts a session snapshot to one tenant's counters,
// stripping the "tenant.NAME." prefix so the remaining tables read
// like a solo run's (per-OST counters become "ostNNN.*").
func filterTenant(s *telemetry.Snapshot, name string) *telemetry.Snapshot {
	prefix := "tenant." + name + "."
	out := &telemetry.Snapshot{}
	for _, c := range s.Counters {
		if rest, ok := strings.CutPrefix(c.Name, prefix); ok {
			c.Name = rest
			out.Counters = append(out.Counters, c)
		}
	}
	for _, g := range s.Gauges {
		if rest, ok := strings.CutPrefix(g.Name, prefix); ok {
			g.Name = rest
			out.Gauges = append(out.Gauges, g)
		}
	}
	for _, h := range s.Hists {
		if rest, ok := strings.CutPrefix(h.Name, prefix); ok {
			h.Name = rest
			out.Hists = append(out.Hists, h)
		}
	}
	return out
}

func printCounters(w io.Writer, s *telemetry.Snapshot, top int) {
	// Per-OST counters get their own table; keep this one readable.
	var cs []telemetry.CounterSnap
	for _, c := range s.Counters {
		if ostIndex(c.Name) < 0 {
			cs = append(cs, c)
		}
	}
	if len(cs) == 0 {
		return
	}
	sort.SliceStable(cs, func(i, j int) bool { return cs[i].Value > cs[j].Value })
	rows := [][]string{{"counter", "value"}}
	for _, c := range cs[:min(len(cs), top)] {
		rows = append(rows, []string{c.Name, report.F(c.Value, 2)})
	}
	fmt.Fprintln(w, "top counters")
	report.Table(w, rows)
	fmt.Fprintln(w)
}

func printGauges(w io.Writer, s *telemetry.Snapshot) {
	if len(s.Gauges) == 0 {
		return
	}
	rows := [][]string{{"gauge", "final", "high-water"}}
	for _, g := range s.Gauges {
		rows = append(rows, []string{g.Name, report.F(g.Value, 2), report.F(g.Max, 2)})
	}
	fmt.Fprintln(w, "gauges")
	report.Table(w, rows)
	fmt.Fprintln(w)
}

func printHists(w io.Writer, s *telemetry.Snapshot, top int) {
	if len(s.Hists) == 0 {
		return
	}
	hs := append([]telemetry.HistSnap(nil), s.Hists...)
	sort.SliceStable(hs, func(i, j int) bool { return hs[i].Count > hs[j].Count })
	rows := [][]string{{"histogram", "n", "mean", "min", "max"}}
	for _, h := range hs[:min(len(hs), top)] {
		rows = append(rows, []string{
			h.Name, fmt.Sprint(h.Count),
			report.F(h.Mean(), 4), report.F(h.Min, 4), report.F(h.Max, 4),
		})
	}
	fmt.Fprintln(w, "histograms")
	report.Table(w, rows)
	fmt.Fprintln(w)
}

// ostStat collects the lustre.ostNNN.* counter family for one OST.
type ostStat struct {
	ost                     int
	streams, mb, sec, stall float64
}

// ostIndex parses the OST number out of a per-OST counter name —
// "lustre.ostNNN.<metric>", a tenant slice "tenant.X.ostNNN.<metric>",
// or the prefix-stripped "ostNNN.<metric>" a -tenant filter leaves —
// and returns -1 when the name is not per-OST.
func ostIndex(name string) int {
	rest, ok := strings.CutPrefix(name, "ost")
	if !ok {
		if i := strings.Index(name, ".ost"); i >= 0 {
			rest, ok = name[i+len(".ost"):], true
		}
	}
	if !ok {
		return -1
	}
	num, _, ok := strings.Cut(rest, ".")
	if !ok {
		return -1
	}
	n, err := strconv.Atoi(num)
	if err != nil {
		return -1
	}
	return n
}

// skipOSTFamily reports counter families the per-OST table must not
// fold in: tenant per-OST slices would double-count against the
// global family (the -tenant filter is the view onto those), and the
// cascache.* cache counters are campaign-level, never per-OST traffic.
func skipOSTFamily(name string) bool {
	return strings.HasPrefix(name, "tenant.") ||
		strings.HasPrefix(name, campaign.CounterPrefix)
}

// printOSTs renders the per-OST hot-spot table: the servers carrying
// the most traffic and — the diagnostic payoff — any with injected
// stall time, sorted so stalled then busiest OSTs lead.
func printOSTs(w io.Writer, s *telemetry.Snapshot, top int) {
	stats := map[int]*ostStat{}
	for _, c := range s.Counters {
		if skipOSTFamily(c.Name) {
			continue
		}
		i := ostIndex(c.Name)
		if i < 0 {
			continue
		}
		st, ok := stats[i]
		if !ok {
			st = &ostStat{ost: i}
			stats[i] = st
		}
		switch c.Name[strings.LastIndexByte(c.Name, '.')+1:] {
		case "streams":
			st.streams = c.Value
		case "mb":
			st.mb = c.Value
		case "seconds":
			st.sec = c.Value
		case "stall_s":
			st.stall = c.Value
		}
	}
	if len(stats) == 0 {
		return
	}
	list := slices.SortedFunc(maps.Values(stats), func(a, b *ostStat) int {
		return cmp.Or(cmp.Compare(b.stall, a.stall), cmp.Compare(b.sec, a.sec), cmp.Compare(a.ost, b.ost))
	})
	rows := [][]string{{"ost", "streams", "MB", "busy_s", "stall_s", "MB/s"}}
	for _, st := range list[:min(len(list), top)] {
		rate := 0.0
		if st.sec > 0 {
			rate = st.mb / st.sec
		}
		rows = append(rows, []string{
			fmt.Sprintf("ost%03d", st.ost),
			report.F(st.streams, 0), report.F(st.mb, 0),
			report.F(st.sec, 1), report.F(st.stall, 1), report.F(rate, 0),
		})
	}
	fmt.Fprintln(w, "per-OST hot spots (stalled first)")
	report.Table(w, rows)
	fmt.Fprintln(w)
}

// printSpans breaks a span file down by category: total virtual time,
// span count, and the longest single span with its name. With tenant
// set, only that tenant's spans count — its window span (cat
// "tenant") and the "NAME/"-prefixed phase and I/O spans a session
// fold emits.
func printSpans(w io.Writer, path string, top int, tenant string) error {
	spans, err := readFile(path, tracefmt.ReadSpans)
	if err != nil {
		return err
	}
	if tenant != "" {
		kept := spans[:0]
		for _, sp := range spans {
			if sp.Cat == "tenant" && sp.Name == tenant ||
				strings.HasPrefix(sp.Name, tenant+"/") {
				kept = append(kept, sp)
			}
		}
		spans = kept
	}
	type catStat struct {
		cat          string
		n            int
		total        float64
		longest      float64
		longestLabel string
	}
	cats := map[string]*catStat{}
	for _, sp := range spans {
		c, ok := cats[sp.Cat]
		if !ok {
			c = &catStat{cat: sp.Cat}
			cats[sp.Cat] = c
		}
		d := sp.End - sp.Start
		c.n++
		c.total += d
		if d > c.longest {
			c.longest = d
			c.longestLabel = sp.Name
		}
	}
	list := slices.SortedFunc(maps.Values(cats), func(a, b *catStat) int {
		return cmp.Or(cmp.Compare(b.total, a.total), cmp.Compare(a.cat, b.cat))
	})
	rows := [][]string{{"category", "spans", "total_s", "longest_s", "longest span"}}
	for _, c := range list[:min(len(list), top)] {
		rows = append(rows, []string{
			c.cat, fmt.Sprint(c.n),
			report.F(c.total, 2), report.F(c.longest, 2), c.longestLabel,
		})
	}
	fmt.Fprintf(w, "span time by category (%d spans in %s)\n", len(spans), path)
	report.Table(w, rows)
	return nil
}
