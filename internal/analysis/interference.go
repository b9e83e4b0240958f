package analysis

import (
	"sort"

	"ensembleio/internal/ipmio"
)

// This file holds the LASSi-style interference metrics for multi-tenant
// co-scheduled runs (internal/tenancy): per-tenant I/O-time shares,
// contention-attribution windows over the shared OSTs, overlap-weighted
// slowdown against each tenant's solo baseline, and the victim/
// aggressor ranking built from all three. Everything here is a pure
// function of its inputs — fixed-order slice iteration, no maps in
// output paths, no wall-clock — so a report serializes byte-identically
// across schedulers.

// TenantObs is one tenant's observation bundle, assembled by the
// session driver (internal/tenancy) from the co-run and the tenant's
// solo baseline.
type TenantObs struct {
	// Name is the tenant's label in the report.
	Name string
	// StartSec / EndSec delimit the tenant's window in the co-run's
	// virtual time (staggered start to last-rank finish).
	StartSec float64
	EndSec   float64
	// SoloSec is the tenant's solo makespan on the same machine, seed,
	// and fault scenario — the slowdown denominator.
	SoloSec float64
	// Events is the tenant's co-run trace (absolute virtual-time
	// starts). Optional: with no trace the tenant counts as active over
	// its whole window.
	Events []ipmio.Event
	// IOSeconds is the tenant's total traced I/O time (sum of event
	// durations); derived from Events when they are present.
	IOSeconds float64
	// OSTSeconds / OSTMB are the tenant's attributed per-OST busy
	// seconds and bytes from the shared mount's tenant accounting
	// (lustre.TenantUsage.PerOST). Optional; used for shared-OST
	// attribution.
	OSTSeconds []float64
	OSTMB      []float64
}

// InterferenceConfig tunes the metric thresholds. The zero value
// selects the defaults.
type InterferenceConfig struct {
	// BinSec is the activity-histogram bin width (default 1s of
	// virtual time).
	BinSec float64
	// SlowdownMin is the minimum co-run/solo slowdown for a tenant to
	// be reported as a victim (default 1.15).
	SlowdownMin float64
	// OverlapMin is the minimum fraction of the victim's active bins
	// the aggressor must overlap (default 0.05).
	OverlapMin float64
	// TopOSTs caps the shared-OST attribution list per pair
	// (default 4).
	TopOSTs int
}

func (c InterferenceConfig) withDefaults() InterferenceConfig {
	if c.BinSec <= 0 {
		c.BinSec = 1
	}
	if c.SlowdownMin <= 0 {
		c.SlowdownMin = 1.15
	}
	if c.OverlapMin <= 0 {
		c.OverlapMin = 0.05
	}
	if c.TopOSTs <= 0 {
		c.TopOSTs = 4
	}
	return c
}

// TenantMetrics is one tenant's share of the co-run.
type TenantMetrics struct {
	Name string `json:"name"`
	// StartSec/EndSec echo the tenant's co-run window.
	StartSec float64 `json:"start_sec"`
	EndSec   float64 `json:"end_sec"`
	// DurationSec is the tenant's co-run makespan (end - start).
	DurationSec float64 `json:"duration_sec"`
	// SoloSec is the solo-baseline makespan; Slowdown is
	// DurationSec/SoloSec (1.0 = no interference effect, 0 when no
	// baseline was provided).
	SoloSec  float64 `json:"solo_sec"`
	Slowdown float64 `json:"slowdown"`
	// IOSeconds is the tenant's total traced I/O time; IOTimeShare is
	// its fraction of all tenants' I/O time — the LASSi-style
	// "who is driving the file system" share.
	IOSeconds   float64 `json:"io_seconds"`
	IOTimeShare float64 `json:"io_time_share"`
	// OSTBusyShare is the tenant's fraction of all attributed per-OST
	// busy seconds (0 when no OST accounting was provided).
	OSTBusyShare float64 `json:"ost_busy_share"`
}

// ContentionWindow is a maximal span of virtual time during which at
// least two tenants were concurrently active.
type ContentionWindow struct {
	StartSec float64 `json:"start_sec"`
	EndSec   float64 `json:"end_sec"`
	// Tenants lists the tenants active anywhere in the window, in
	// observation order.
	Tenants []string `json:"tenants"`
}

// InterferencePair is one ranked victim/aggressor finding.
type InterferencePair struct {
	Victim    string `json:"victim"`
	Aggressor string `json:"aggressor"`
	// Slowdown is the victim's co-run/solo ratio; OverlapFrac is the
	// fraction of the victim's active time the aggressor was also
	// active. Score = (Slowdown-1) * OverlapFrac ranks the pairs.
	Slowdown    float64 `json:"slowdown"`
	OverlapFrac float64 `json:"overlap_frac"`
	Score       float64 `json:"score"`
	// SharedOSTs lists the OSTs both tenants drove hardest, ranked by
	// the smaller of the two busy-second attributions (the contended
	// capacity), capped at TopOSTs.
	SharedOSTs []int `json:"shared_osts,omitempty"`
}

// InterferenceReport is the full LASSi-style analysis artifact.
type InterferenceReport struct {
	Tenants []TenantMetrics    `json:"tenants"`
	Windows []ContentionWindow `json:"contention_windows,omitempty"`
	Ranking []InterferencePair `json:"ranking,omitempty"`
}

// Interference computes the report from per-tenant observations. The
// observation order fixes every output order (tenant metrics, window
// tenant lists); the ranking is sorted by score descending with
// victim/aggressor names as the tie-break.
func Interference(obs []TenantObs, cfg InterferenceConfig) *InterferenceReport {
	cfg = cfg.withDefaults()
	rep := &InterferenceReport{}
	if len(obs) == 0 {
		return rep
	}

	// Activity histogram: for each tenant, the fraction of each BinSec
	// bin covered by traced I/O (or by the whole window when no trace
	// was provided).
	end := 0.0
	for i := range obs {
		if obs[i].EndSec > end {
			end = obs[i].EndSec
		}
	}
	nBins := int(end/cfg.BinSec) + 1
	activity := make([][]float64, len(obs))
	for i := range obs {
		activity[i] = tenantActivity(&obs[i], nBins, cfg.BinSec)
	}

	// Per-tenant metrics.
	totalIO, totalBusy := 0.0, 0.0
	busy := make([]float64, len(obs))
	for i := range obs {
		o := &obs[i]
		if o.Events != nil {
			o.IOSeconds = 0
			for j := range o.Events {
				o.IOSeconds += float64(o.Events[j].Dur)
			}
		}
		totalIO += o.IOSeconds
		for _, s := range o.OSTSeconds {
			busy[i] += s
		}
		totalBusy += busy[i]
	}
	for i := range obs {
		o := &obs[i]
		m := TenantMetrics{
			Name:        o.Name,
			StartSec:    o.StartSec,
			EndSec:      o.EndSec,
			DurationSec: o.EndSec - o.StartSec,
			SoloSec:     o.SoloSec,
			IOSeconds:   o.IOSeconds,
		}
		if o.SoloSec > 0 {
			m.Slowdown = m.DurationSec / o.SoloSec
		}
		if totalIO > 0 {
			m.IOTimeShare = o.IOSeconds / totalIO
		}
		if totalBusy > 0 {
			m.OSTBusyShare = busy[i] / totalBusy
		}
		rep.Tenants = append(rep.Tenants, m)
	}

	rep.Windows = contentionWindows(obs, activity, cfg.BinSec)
	rep.Ranking = rankPairs(obs, activity, cfg)
	return rep
}

// tenantActivity fills the tenant's per-bin active fraction: traced
// event durations smeared over the bins they cover, clamped to 1 per
// bin; a traceless tenant is fully active over [StartSec, EndSec).
func tenantActivity(o *TenantObs, nBins int, binSec float64) []float64 {
	act := make([]float64, nBins)
	if len(o.Events) == 0 {
		smear(act, o.StartSec, o.EndSec, binSec)
	} else {
		for i := range o.Events {
			e := &o.Events[i]
			smear(act, float64(e.Start), float64(e.Start+e.Dur), binSec)
		}
	}
	for i := range act {
		if act[i] > 1 {
			act[i] = 1
		}
	}
	return act
}

// smear adds the [t0, t1) interval's coverage fraction into each bin it
// touches.
func smear(act []float64, t0, t1, binSec float64) {
	if t1 <= t0 {
		return
	}
	b0, b1 := int(t0/binSec), int(t1/binSec)
	if b0 >= len(act) {
		return
	}
	if b1 >= len(act) {
		b1 = len(act) - 1
	}
	for b := b0; b <= b1; b++ {
		lo, hi := float64(b)*binSec, float64(b+1)*binSec
		if t0 > lo {
			lo = t0
		}
		if t1 < hi {
			hi = t1
		}
		if hi > lo {
			act[b] += (hi - lo) / binSec
		}
	}
}

// active reports whether a tenant meaningfully used the bin: at least
// 1% coverage, so a single microscopic close op does not count a
// tenant into a contention window.
func active(frac float64) bool { return frac >= 0.01 }

// contentionWindows merges consecutive bins with >= 2 active tenants
// into maximal windows, tagging each with the union of tenants active
// anywhere inside it (observation order).
func contentionWindows(obs []TenantObs, activity [][]float64, binSec float64) []ContentionWindow {
	var wins []ContentionWindow
	nBins := 0
	if len(activity) > 0 {
		nBins = len(activity[0])
	}
	inWin := false
	var start int
	var present []bool
	flush := func(endBin int) {
		w := ContentionWindow{StartSec: float64(start) * binSec, EndSec: float64(endBin) * binSec}
		for i := range obs {
			if present[i] {
				w.Tenants = append(w.Tenants, obs[i].Name)
			}
		}
		wins = append(wins, w)
	}
	for b := 0; b < nBins; b++ {
		n := 0
		for i := range activity {
			if active(activity[i][b]) {
				n++
			}
		}
		if n >= 2 {
			if !inWin {
				inWin = true
				start = b
				present = make([]bool, len(obs))
			}
			for i := range activity {
				if active(activity[i][b]) {
					present[i] = true
				}
			}
		} else if inWin {
			inWin = false
			flush(b)
		}
	}
	if inWin {
		flush(nBins)
	}
	return wins
}

// rankPairs scores every ordered (victim, aggressor) pair and keeps
// those clearing both thresholds, sorted by score descending (names
// break ties).
func rankPairs(obs []TenantObs, activity [][]float64, cfg InterferenceConfig) []InterferencePair {
	var pairs []InterferencePair
	for v := range obs {
		if obs[v].SoloSec <= 0 {
			continue
		}
		slowdown := (obs[v].EndSec - obs[v].StartSec) / obs[v].SoloSec
		if slowdown < cfg.SlowdownMin {
			continue
		}
		vAct := activity[v]
		vBins := 0
		for _, f := range vAct {
			if active(f) {
				vBins++
			}
		}
		if vBins == 0 {
			continue
		}
		for a := range obs {
			if a == v {
				continue
			}
			both := 0
			for b := range vAct {
				if active(vAct[b]) && active(activity[a][b]) {
					both++
				}
			}
			overlap := float64(both) / float64(vBins)
			if overlap < cfg.OverlapMin {
				continue
			}
			pairs = append(pairs, InterferencePair{
				Victim:      obs[v].Name,
				Aggressor:   obs[a].Name,
				Slowdown:    slowdown,
				OverlapFrac: overlap,
				Score:       (slowdown - 1) * overlap,
				SharedOSTs:  sharedOSTs(&obs[v], &obs[a], cfg.TopOSTs),
			})
		}
	}
	sort.SliceStable(pairs, func(i, j int) bool {
		if pairs[i].Score != pairs[j].Score { //lint:allow(floateq) sort comparator needs exact ordering for determinism
			return pairs[i].Score > pairs[j].Score
		}
		if pairs[i].Victim != pairs[j].Victim {
			return pairs[i].Victim < pairs[j].Victim
		}
		return pairs[i].Aggressor < pairs[j].Aggressor
	})
	return pairs
}

// sharedOSTs ranks the OSTs both tenants drove, by the smaller of the
// two busy-second attributions (the capacity genuinely contended),
// descending, OST index ascending on ties, capped at top.
func sharedOSTs(v, a *TenantObs, top int) []int {
	n := len(v.OSTSeconds)
	if len(a.OSTSeconds) < n {
		n = len(a.OSTSeconds)
	}
	type cand struct {
		ost int
		min float64
	}
	var cands []cand
	for i := 0; i < n; i++ {
		m := v.OSTSeconds[i]
		if a.OSTSeconds[i] < m {
			m = a.OSTSeconds[i]
		}
		if m > 0 {
			cands = append(cands, cand{ost: i, min: m})
		}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].min != cands[j].min { //lint:allow(floateq) sort comparator needs exact ordering for determinism
			return cands[i].min > cands[j].min
		}
		return cands[i].ost < cands[j].ost
	})
	if len(cands) > top {
		cands = cands[:top]
	}
	osts := make([]int, len(cands))
	for i, c := range cands {
		osts[i] = c.ost
	}
	return osts
}
