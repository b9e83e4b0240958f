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
	ds, off := groupBy(slot, len(ranks), nil, func(i int) float64 { return float64(events[i].Dur) })
	meds = make([]float64, len(ranks))
	for s := range ranks {
		d := ds[off[s]:off[s+1]]
		sort.Float64s(d)
		meds[s] = d[len(d)/2]
	}
	return ranks, meds
}

// slowRanks partitions ranks into those whose median sized-op duration
// is at least thresh times the global median of rank medians.
func slowRanks(ranks []int, meds []float64, thresh float64) (slow []int, global float64) {
	all := append([]float64(nil), meds...)
	sort.Float64s(all)
	global = all[len(all)/2]
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

// phaseDurs is one phase's sorted durations.
type phaseDurs struct {
	name string
	durs []float64
}

// phaseDurations returns, per phase, the sorted durations of the
// events keep accepts; phases and phaseOf are phaseIndex's split.
func phaseDurations(events []ipmio.Event, phases []Phase, phaseOf []int32, keep func(ipmio.Event) bool) []phaseDurs {
	ds, off := groupBy(phaseOf, len(phases),
		func(i int) bool { return keep(events[i]) },
		func(i int) float64 { return float64(events[i].Dur) })
	out := make([]phaseDurs, len(phases))
	for k, ph := range phases {
		d := ds[off[k]:off[k+1]:off[k+1]]
		sort.Float64s(d)
		out[k] = phaseDurs{ph.Name, d}
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
func diagnoseIntermittentStall(events []ipmio.Event, phases []Phase, phaseOf []int32, readTail bool, cfg DiagnoseConfig) (Finding, bool) {
	if phases == nil || readTail {
		return Finding{}, false
	}
	durs := phaseDurations(events, phases, phaseOf, dataOp(cfg.SmallIOBytes))
	var stalledNames []string
	var tailMeds []float64
	clean := 0
	for _, ph := range durs {
		n := len(ph.durs)
		if n < 8 {
			continue
		}
		med := ph.durs[n/2]
		if med <= 0 {
			continue
		}
		tailStart := sort.SearchFloat64s(ph.durs, 3*med)
		tail := ph.durs[tailStart:]
		frac := float64(len(tail)) / float64(n)
		if frac < 0.05 {
			clean++
			continue
		}
		// A stalled phase carries a substantial minority tail far above
		// its own median (>=5x keeps partially burst-covered phases,
		// whose tails sit near 3-4x, from qualifying).
		if frac >= 0.1 && frac <= 0.5 {
			tailMed := tail[len(tail)/2]
			if tailMed >= 5*med {
				stalledNames = append(stalledNames, ph.name)
				tailMeds = append(tailMeds, tailMed)
			}
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
func diagnoseBackgroundContention(events []ipmio.Event, phases []Phase, phaseOf []int32, readTail bool, cfg DiagnoseConfig) (Finding, bool) {
	if phases == nil || readTail {
		return Finding{}, false
	}
	durs := phaseDurations(events, phases, phaseOf, func(e ipmio.Event) bool {
		return e.Op == ipmio.OpWrite && e.Bytes > cfg.SmallIOBytes
	})
	type phStat struct {
		name     string
		med, p25 float64
	}
	var stats []phStat
	for _, ph := range durs {
		if len(ph.durs) < 8 {
			continue
		}
		stats = append(stats, phStat{ph.name, ph.durs[len(ph.durs)/2], quantileSorted(ph.durs, 0.25)})
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
		refMeds = append(refMeds, s.med)
		refP25s = append(refP25s, s.p25)
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
		case s.med >= 2*refMed && s.p25 >= 1.3*refP25:
			slowNames = append(slowNames, s.name)
			lastSlow = i
		case s.med <= 1.3*refMed:
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
