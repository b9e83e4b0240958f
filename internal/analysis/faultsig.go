package analysis

import (
	"fmt"
	"sort"
	"strings"

	"ensembleio/internal/ipmio"
)

// This file holds the fault-signature detectors: diagnoses for the
// degradations internal/faults can inject, driven purely by ensemble
// statistics of the trace (cross-checked, where available, against the
// server-side per-OST view). Each detector is the recognition half of
// a labeled fixture — DESIGN.md §9 tabulates fault → signature.

// dataOp selects sized data operations (reads and writes above the
// metadata-class threshold).
func dataOp(smallIO int64) func(ipmio.Event) bool {
	return func(e ipmio.Event) bool {
		return (e.Op == ipmio.OpWrite || e.Op == ipmio.OpRead) && e.Bytes > smallIO
	}
}

// rankMedians returns each rank's median sized-data-op duration:
// meds[i] is the median of ranks[i], and ranks ascend.
func rankMedians(events []ipmio.Event, smallIO int64) (ranks []int, meds []float64) {
	slot, ranks := rankSlots(events, dataOp(smallIO))
	ds, off := groupBy(len(events), len(ranks),
		func(i int) int32 { return slot[i] },
		func(i int) float64 { return float64(events[i].Dur) })
	meds = make([]float64, len(ranks))
	for s := range ranks {
		d := ds[off[s]:off[s+1]]
		meds[s] = kth(d, len(d)/2)
	}
	return ranks, meds
}

// slowRanks partitions ranks into those whose median sized-op duration
// is at least thresh times the global median of rank medians.
func slowRanks(ranks []int, meds []float64, thresh float64) (slow []int, global float64) {
	all := append([]float64(nil), meds...)
	global = kth(all, len(all)/2)
	if global <= 0 {
		return nil, global
	}
	for i, r := range ranks {
		if meds[i] >= thresh*global {
			slow = append(slow, r)
		}
	}
	return slow, global
}

// diagnoseStragglerOST recognizes a degraded object storage target
// from the two-sided evidence the paper's methodology prescribes: the
// trace ensemble shows a heavy right mode whose population fraction
// matches the fraction of bytes striped onto one OST, and the
// server-side per-OST statistics confirm that exactly that OST serves
// far below the median rate. Localization names the OST index.
func diagnoseStragglerOST(ranks []int, meds []float64, cfg DiagnoseConfig) (Finding, bool) {
	if len(cfg.OSTRates) < 2 || len(ranks) < 16 {
		return Finding{}, false
	}
	slow, _ := slowRanks(ranks, meds, 3)
	frac := float64(len(slow)) / float64(len(ranks))
	if len(slow) == 0 || frac > 0.5 {
		return Finding{}, false
	}

	// Server-side cross-check: one OST's mean service rate is far
	// below the median OST's.
	var rates []float64
	totalMB := 0.0
	for _, o := range cfg.OSTRates {
		if o.MB > 0 {
			rates = append(rates, o.MBps)
			totalMB += o.MB
		}
	}
	if len(rates) < 2 || totalMB <= 0 {
		return Finding{}, false
	}
	sort.Float64s(rates)
	medRate := rates[len(rates)/2]
	minIdx, minRate := -1, medRate
	for i, o := range cfg.OSTRates {
		if o.MB > 0 && o.MBps < minRate {
			minIdx, minRate = i, o.MBps
		}
	}
	if minIdx < 0 || minRate > 0.5*medRate {
		return Finding{}, false
	}

	// Mass check: the slow subpopulation's size must match the bytes
	// striped onto the straggler (within a factor of 3 — stripe-count
	// 1 makes it exact, wider stripes blur it).
	share := cfg.OSTRates[minIdx].MB / totalMB
	if share <= 0 || frac/share < 1.0/3 || frac/share > 3 {
		return Finding{}, false
	}
	return Finding{
		Code:     "straggler-ost",
		Severity: Critical,
		Message: fmt.Sprintf("OST %d serves at %.0f MB/s against a %.0f MB/s median OST, and the %.1f%% of ranks running >=3x slower than the median match its %.1f%% byte share: a straggler OST; migrate or deactivate OST %d",
			minIdx, minRate, medRate, frac*100, share*100, minIdx),
	}, true
}

// diagnoseSlowNode recognizes a degraded node link: the slow-rank
// subpopulation maps exactly onto one compute node's ranks (a striping
// straggler scatters slow ranks across nodes instead).
func diagnoseSlowNode(ranks []int, meds []float64, cfg DiagnoseConfig) (Finding, bool) {
	if len(ranks) < 16 || cfg.CoresPerNode <= 0 {
		return Finding{}, false
	}
	slow, _ := slowRanks(ranks, meds, 3)
	if len(slow) == 0 || len(slow) > cfg.CoresPerNode ||
		float64(len(slow))/float64(len(ranks)) > 0.25 {
		return Finding{}, false
	}
	node := slow[0] / cfg.CoresPerNode
	for _, r := range slow[1:] {
		if r/cfg.CoresPerNode != node {
			return Finding{}, false
		}
	}
	// Every active rank of that node must be slow — one slow rank on a
	// healthy node is an application imbalance, not a link fault.
	onNode := 0
	for _, r := range ranks {
		if r/cfg.CoresPerNode == node {
			onNode++
		}
	}
	if onNode < 2 || len(slow) != onNode {
		return Finding{}, false
	}
	return Finding{
		Code:     "slow-node",
		Severity: Critical,
		Message: fmt.Sprintf("all %d ranks of node %d (ranks %d-%d) run >=3x slower than the median while every other node is healthy: a degraded node link; drain the node or reroute its traffic",
			onNode, node, node*cfg.CoresPerNode, node*cfg.CoresPerNode+cfg.CoresPerNode-1),
	}, true
}

// phaseStat is one phase's order statistics, each the element a sort
// of the phase's durations puts at that rank.
type phaseStat struct {
	name string
	// Over the phase's sized data ops (dataOp): their number, median
	// (the element at n/2), and the tail of ops at or above three
	// times the median: its size and median.
	n       int
	med     float64
	tail    int
	tailMed float64
	// Over the phase's sized writes alone: their number, median and
	// lower quartile (quantileSorted at 0.25).
	writes             int
	writeMed, writeP25 float64
}

// phaseGroups groups the durations of each phase's sized data ops,
// writes first: phase k's ops are vals[off[2k]:off[2k+2]], and its
// writes alone vals[off[2k]:off[2k+1]]. phases and phaseOf are
// phaseIndex's split.
func phaseGroups(events []ipmio.Event, phases []Phase, phaseOf []int32, smallIO int64) (vals []float64, off []int) {
	keep := dataOp(smallIO)
	return groupBy(len(events), 2*len(phases),
		func(i int) int32 {
			e := events[i]
			if phaseOf[i] < 0 || !keep(e) {
				return -1
			}
			if e.Op == ipmio.OpRead {
				return 2*phaseOf[i] + 1
			}
			return 2 * phaseOf[i]
		},
		func(i int) float64 { return float64(events[i].Dur) })
}

// phaseStats computes each phase's statistics by selection, reordering
// the groups of phaseGroups in place.
func phaseStats(phases []Phase, vals []float64, off []int) []phaseStat {
	out := make([]phaseStat, len(phases))
	for k, ph := range phases {
		st := phaseStat{name: ph.Name}
		// The writes first: selecting within them leaves the phase's
		// group the same multiset.
		if w := vals[off[2*k]:off[2*k+1]]; len(w) > 0 {
			st.writes = len(w)
			q := int(0.25 * float64(len(w)-1))
			st.writeP25 = kth(w, q)
			// kth leaves w[q:] holding the elements ranked q and up.
			st.writeMed = kth(w[q:], len(w)/2-q)
		}
		if d := vals[off[2*k]:off[2*k+2]]; len(d) > 0 {
			st.n = len(d)
			st.med = kth(d, len(d)/2)
			for _, x := range d {
				if x >= 3*st.med {
					st.tail++
				}
			}
			if st.tail > 0 {
				// The tail is the top st.tail ranks; once the median is
				// positive they lie above its rank, in d[len(d)/2:].
				r, lo := len(d)-st.tail+st.tail/2, 0
				if r >= len(d)/2 {
					lo = len(d) / 2
				}
				st.tailMed = kth(d[lo:], r-lo)
			}
		}
		out[k] = st
	}
	return out
}

func quantileSorted(ds []float64, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	i := int(q * float64(len(ds)-1))
	return ds[i]
}

// diagnoseIntermittentStall recognizes a flaky resource from a bimodal
// per-phase ensemble with phase-correlated onset: some phases carry a
// minority tail of calls several times the phase median while other
// phases are clean, and the tail magnitude does not grow phase over
// phase (progressive growth is the read-ahead defect's signature, not
// a stall window's).
//
// A heavy global read tail (readTail) is the §IV read-ahead pathology,
// whose per-phase deterioration mimics stall windows; the detector
// then stays silent and lets the dominant diagnosis speak alone.
func diagnoseIntermittentStall(stats []phaseStat, readTail bool) (Finding, bool) {
	if stats == nil || readTail {
		return Finding{}, false
	}
	var stalledNames []string
	var tailMeds []float64
	clean := 0
	for _, ph := range stats {
		if ph.n < 8 || ph.med <= 0 {
			continue
		}
		frac := float64(ph.tail) / float64(ph.n)
		if frac < 0.05 {
			clean++
			continue
		}
		// A stalled phase carries a substantial minority tail far above
		// its own median (>=5x keeps partially burst-covered phases,
		// whose tails sit near 3-4x, from qualifying).
		if frac >= 0.1 && frac <= 0.5 && ph.tailMed >= 5*ph.med {
			stalledNames = append(stalledNames, ph.name)
			tailMeds = append(tailMeds, ph.tailMed)
		}
	}
	if len(stalledNames) == 0 || clean == 0 {
		return Finding{}, false
	}
	// Non-progressive gate: across stalled phases the tail magnitude
	// stays within 4x — a stall window revisits the same severity.
	lo, hi := tailMeds[0], tailMeds[0]
	for _, t := range tailMeds[1:] {
		if t < lo {
			lo = t
		}
		if t > hi {
			hi = t
		}
	}
	if lo <= 0 || hi/lo >= 4 {
		return Finding{}, false
	}
	return Finding{
		Code:     "intermittent-stall",
		Severity: Warning,
		Message: fmt.Sprintf("phases %s carry a minority tail of calls >=3x the phase median while %d phase(s) stay clean, at stable tail magnitude: an intermittently stalling resource (flaky OST or controller); correlate the stall windows with storage health logs",
			strings.Join(stalledNames, ", "), clean),
	}, true
}

// diagnoseMDSBrownout recognizes a browned-out metadata service from
// the open/close ensemble alone: metadata operations at seconds scale.
// Queue drain in a healthy open storm stays well under this (16-wide
// service at ~1 ms/op), so the threshold is absolute.
func diagnoseMDSBrownout(events []ipmio.Event) (Finding, bool) {
	d := Durations(events, func(e ipmio.Event) bool {
		return e.Op == ipmio.OpOpen || e.Op == ipmio.OpClose
	})
	if d.Len() < 16 {
		return Finding{}, false
	}
	med, p95 := d.Quantile(0.5), d.Quantile(0.95)
	if med < 2.0 && !(p95 >= 5 && med > 0 && p95/med >= 10) {
		return Finding{}, false
	}
	return Finding{
		Code:     "mds-brownout",
		Severity: Critical,
		Message: fmt.Sprintf("metadata operations run at seconds scale (median %.1fs, p95 %.1fs across %d ops): the metadata service is browned out (reduced concurrency and/or lock-revocation storms); reduce open/close pressure and check MDS health",
			med, p95, d.Len()),
	}, true
}

// diagnoseBackgroundContention recognizes competing external load:
// whole phases slow down together — the entire distribution shifts,
// lower quartile included — and later phases recover. A flaky OST
// instead leaves the lower quartile in place and a read-ahead defect
// never recovers.
//
// A heavy read tail (readTail, the §IV pathology) confounds per-phase
// write medians; the detector then lets the dominant diagnosis speak
// alone.
func diagnoseBackgroundContention(phases []phaseStat, readTail bool) (Finding, bool) {
	if phases == nil || readTail {
		return Finding{}, false
	}
	var stats []phaseStat
	for _, ph := range phases {
		if ph.writes >= 8 {
			stats = append(stats, ph)
		}
	}
	if len(stats) < 3 {
		return Finding{}, false
	}
	// Reference the median of phase medians, not the minimum: write-back
	// cache absorption makes the very first phase unrepresentatively
	// fast, and a minimum reference would compare every later phase
	// against that warmup artifact.
	refMeds := make([]float64, 0, len(stats))
	refP25s := make([]float64, 0, len(stats))
	for _, s := range stats {
		refMeds = append(refMeds, s.writeMed)
		refP25s = append(refP25s, s.writeP25)
	}
	sort.Float64s(refMeds)
	sort.Float64s(refP25s)
	refMed := quantileSorted(refMeds, 0.5)
	refP25 := quantileSorted(refP25s, 0.5)
	if refMed <= 0 || refP25 <= 0 {
		return Finding{}, false
	}
	var slowNames []string
	lastSlow, lastClean := -1, -1
	for i, s := range stats {
		switch {
		case s.writeMed >= 2*refMed && s.writeP25 >= 1.3*refP25:
			slowNames = append(slowNames, s.name)
			lastSlow = i
		case s.writeMed <= 1.3*refMed:
			lastClean = i
		}
	}
	// Contention comes and goes: require a recovery after a slow phase.
	if len(slowNames) == 0 || lastClean < lastSlow {
		return Finding{}, false
	}
	return Finding{
		Code:     "background-contention",
		Severity: Warning,
		Message: fmt.Sprintf("phases %s are uniformly slowed (median >=2x and lower quartile >=1.3x the typical phase) and later phases recover: competing external load on the shared file system; check co-scheduled jobs before blaming the application",
			strings.Join(slowNames, ", ")),
	}, true
}
