package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	"ensembleio"
	"ensembleio/internal/cascache"
	"ensembleio/internal/cluster"
	"ensembleio/internal/ensemble/campaign"
	"ensembleio/internal/faults"
	"ensembleio/internal/ipmio"
	"ensembleio/internal/runpool"
	"ensembleio/internal/wldsl"
	"ensembleio/internal/workloads"
)

// scale sizes the workloads. The benchmark measures paperScale; the
// tests run reducedScale.
type scale struct {
	gcrmTasks, iorTasks, madTasks int
	gridSpecs                     []string // corpus spec names in the campaign grid; nil = all
}

var (
	reducedScale = scale{gcrmTasks: 640, iorTasks: 64, madTasks: 16, gridSpecs: []string{"gcrm-twostage", "ior-wide", "madbench"}}
	paperScale   = scale{gcrmTasks: 10240, iorTasks: 1024, madTasks: 256}
)

// env is what a workload's set-up draws its inputs from.
type env struct {
	root string // repository root; the campaign grid reads testdata/ from here
	tmp  string // scratch directory for cache stores
	seed int64
	sc   scale
}

// workload is one benchmark workload. Its set-up builds an instance;
// every pass of the instance does identical work.
type workload struct {
	name, why string
	// workers is the runpool size of every pass.
	workers int
	setup   func(env) (instance, error)
}

// instance is a workload prepared by its set-up.
type instance interface {
	// ops is the number of scenarios one pass completes.
	ops() int
	// run does one pass; t is nil on untraced passes.
	run(t *tracer) error
	// verify checks the outputs of the pass just run, outside the
	// timed window, and reports one opOut per scenario.
	verify() ([]opOut, error)
	close() error
}

// opOut is one scenario's verified output. Digest identifies its
// bytes; every pass of the same instance must reproduce it.
type opOut struct {
	name   string
	digest string
	err    error
}

var allWorkloads = []workload{
	{"gcrm-flagship", "the paper's largest run, one 10,240-rank GCRM on one worker: engine, process switching, flownet and Lustre writes", 1, setupFlagship},
	{"paper-figs", "the reduced figure suite on two workers: IOR splitting, MADbench reads, collective GCRM, then the figure analysis", 2, setupFigs},
	{"campaign-cold", "88 corpus scenarios each submitted twice to an empty cache: wldsl, simulation, trace encoding and publish", 2, setupCold},
	{"campaign-warm", "the same grid served from a populated cache by a fresh process: key derivation, disk reads, digest checks; nothing simulates", 2, setupWarm},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// poolWorkers is the pool size of the paper-figs and campaign passes:
// the machine the benchmark was sized on has 2 CPUs.
const poolWorkers = 2

// pooled runs fn over jobs on a runpool of the given size, charging the
// time inside each job to t's busy time.
func pooled[J, R any](t *tracer, workers int, jobs []J, fn func(J) R) []R {
	return runpool.Map(workers, jobs, func(_ int, j J) R {
		start := time.Now()
		defer func() { t.addBusy(time.Since(start)) }()
		return fn(j)
	})
}

// traceDigest checks a simulated run and digests its binary trace.
// The workload's whole logical volume must have reached the tracer.
func traceDigest(name string, run *workloads.Run) opOut {
	var moved int64
	for _, e := range run.Collector.Events {
		if e.Op == ipmio.OpRead || e.Op == ipmio.OpWrite {
			moved += e.Bytes
		}
	}
	var buf bytes.Buffer
	err := ensembleio.SaveTrace(&buf, run)
	switch {
	case err != nil:
	case run.Wall <= 0:
		err = fmt.Errorf("%s: non-positive simulated wall %v", name, run.Wall)
	case moved < run.TotalBytes:
		err = fmt.Errorf("%s: traced %d bytes of the workload's %d", name, moved, run.TotalBytes)
	}
	sum := sha256.Sum256(buf.Bytes())
	return opOut{name: name, digest: hex.EncodeToString(sum[:]), err: err}
}

// flagship is gcrm-flagship: one paper-scale GCRM baseline per pass.
type flagship struct {
	cfg  workloads.GCRMConfig
	last *workloads.Run
}

func setupFlagship(e env) (instance, error) {
	return &flagship{cfg: workloads.GCRMConfig{Machine: cluster.Franklin(), Tasks: e.sc.gcrmTasks, Seed: e.seed}}, nil
}

func (f *flagship) ops() int { return 1 }

func (f *flagship) run(t *tracer) error {
	cfg := f.cfg
	cfg.Telemetry = t != nil
	f.last = pooled(t, 1, []workloads.GCRMConfig{cfg}, func(cfg workloads.GCRMConfig) *workloads.Run {
		id := t.begin(0, "workloads.run_s", "gcrm-baseline")
		defer t.end(id)
		return workloads.RunGCRM(cfg)
	})[0]
	t.addRun(f.last)
	t.count("model.sim_s", float64(f.last.Wall))
	return nil
}

func (f *flagship) verify() ([]opOut, error) {
	out := traceDigest("gcrm-baseline", f.last)
	f.last = nil
	return []opOut{out}, nil
}

func (f *flagship) close() error { return nil }

// figScenario is one simulation of the reduced figure suite.
type figScenario struct {
	name string
	k    int // transfer split for ConvolveK (Fig 2's t_k)
	run  func(telemetry bool) *workloads.Run
}

// figs is paper-figs: the figure suite's simulations, each followed by
// the analysis paperfig applies to it, on a two-worker runpool.
type figs struct {
	scenarios []figScenario
	last      []figResult
}

type figResult struct {
	run      *workloads.Run
	analysis string
}

func setupFigs(e env) (instance, error) {
	var scs []figScenario
	for _, k := range []int{1, 2, 4, 8} {
		scs = append(scs, figScenario{fmt.Sprintf("ior-k%d", k), k, func(tel bool) *workloads.Run {
			return workloads.RunIOR(workloads.IORConfig{
				Machine: cluster.Franklin(), Tasks: e.sc.iorTasks, Reps: 5,
				TransferBytes: 512e6 / int64(k), Seed: e.seed, Telemetry: tel,
			})
		}})
	}
	for _, m := range []string{"franklin", "jaguar", "franklin-patched"} {
		prof := platform(m)
		scs = append(scs, figScenario{"madbench-" + m, 2, func(tel bool) *workloads.Run {
			return workloads.RunMADbench(workloads.MADbenchConfig{Machine: prof, Tasks: e.sc.madTasks, Seed: e.seed, Telemetry: tel})
		}})
	}
	for stage, name := range []string{"collective", "aligned", "metaagg"} {
		scs = append(scs, figScenario{"gcrm-" + name, 2, func(tel bool) *workloads.Run {
			return workloads.RunGCRM(workloads.GCRMConfig{
				Machine: cluster.Franklin(), Tasks: e.sc.gcrmTasks, Aggregators: 80,
				Align: stage >= 1, AggregateMetadata: stage >= 2, Seed: e.seed, Telemetry: tel,
			})
		}})
	}
	return &figs{scenarios: scs}, nil
}

func (f *figs) ops() int { return len(f.scenarios) }

func (f *figs) run(t *tracer) error {
	f.last = pooled(t, poolWorkers, f.scenarios, func(s figScenario) figResult {
		sid := t.begin(0, "scenario", s.name)
		defer t.end(sid)
		id := t.begin(sid, "workloads.run_s", s.name)
		run := s.run(t != nil)
		t.end(id)
		id = t.begin(sid, "analysis.run_s", s.name)
		a := analyse(run, s.k)
		t.end(id)
		return figResult{run, a}
	})
	for _, r := range f.last { // in submission order, so float sums repeat exactly
		t.addRun(r.run)
		t.count("model.sim_s", float64(r.run.Wall))
	}
	return nil
}

// analyse applies paperfig's per-run analysis — histogram and modes,
// summary, rate series, diagnosis, phases, k-fold convolution and the
// expected slowest task — and digests the results.
func analyse(run *workloads.Run, k int) string {
	op := ensembleio.OpWrite
	if ensembleio.Durations(run, ensembleio.OpRead).Len() > 0 {
		op = ensembleio.OpRead
	}
	d := ensembleio.Durations(run, op)
	h := ensembleio.NewHistogram(ensembleio.LinearBins(0, d.Max()*1.01, 60))
	h.AddAll(d)
	modes := h.Modes(ensembleio.ModeOpts{SmoothRadius: 2, MinProminence: 0.1, MinMass: 0.04})
	sum := ensembleio.Summarize(d)
	series := ensembleio.RateSeries(run, op, 1.0)
	findings := ensembleio.Diagnose(run)
	conv := ensembleio.ConvolveK(h, k)
	emax := ensembleio.ExpectedMax(h, run.Tasks)

	dig := sha256.New()
	fmt.Fprint(dig, modes, sum.Moments, sum.Modes, series.Values, findings, conv.Mean(), conv.Std(), emax)
	for _, p := range ensembleio.Phases(run) {
		fmt.Fprint(dig, p.Name, p.StartT, p.EndT, len(p.Events))
	}
	return hex.EncodeToString(dig.Sum(nil))
}

func (f *figs) verify() ([]opOut, error) {
	outs := make([]opOut, len(f.last))
	for i, r := range f.last {
		outs[i] = traceDigest(f.scenarios[i].name, r.run)
		outs[i].digest += "+" + r.analysis
	}
	f.last = nil
	return outs, nil
}

func (f *figs) close() error { return nil }

// platform returns a named machine profile.
func platform(name string) cluster.Profile {
	switch name {
	case "jaguar":
		return cluster.Jaguar()
	case "franklin-patched":
		return ensembleio.FranklinPatched()
	}
	return cluster.Franklin()
}

// campaignGrid builds the what-if grid from the checked-in corpus:
// every spec × {franklin, jaguar} × {no faults, flaky-ost} × seeds
// {seed, seed+1}, the whole grid submitted twice. It returns the
// entries and the number of distinct scenarios.
func campaignGrid(e env) ([]campaign.Entry, int, error) {
	dir := filepath.Join(e.root, "testdata", "scenarios")
	paths, err := filepath.Glob(filepath.Join(dir, "workloads", "*.json"))
	if err != nil {
		return nil, 0, err
	}
	if e.sc.gridSpecs != nil {
		paths = paths[:0]
		for _, n := range e.sc.gridSpecs {
			paths = append(paths, filepath.Join(dir, "workloads", n+".json"))
		}
	}
	if len(paths) == 0 {
		return nil, 0, fmt.Errorf("no workload specs under %s", dir)
	}
	flaky, err := faults.Load(filepath.Join(dir, "flaky-ost.json"))
	if err != nil {
		return nil, 0, err
	}
	var grid []campaign.Entry
	for _, p := range paths {
		spec, err := wldsl.Load(p)
		if err != nil {
			return nil, 0, err
		}
		for _, m := range []string{"franklin", "jaguar"} {
			for _, sc := range []*faults.Scenario{nil, flaky} {
				label := "none"
				if sc != nil {
					label = sc.Name
				}
				for _, seed := range []int64{e.seed, e.seed + 1} {
					grid = append(grid, campaign.Entry{
						Name:     fmt.Sprintf("%s@%s+%s#%d", spec.Name, m, label, seed),
						Spec:     spec,
						Platform: platform(m),
						Faults:   sc,
						Seed:     seed,
					})
				}
			}
		}
	}
	return append(grid, grid...), len(grid), nil
}

// campaignRun is the state the two campaign workloads share: the grid
// and the outcome of the last pass.
type campaignRun struct {
	entries []campaign.Entry
	unique  int
	store   *cascache.Store
	stats   campaign.Stats
	served  []served // per entry
}

// served is one entry's artifact set and its simulated seconds.
type served struct {
	key  cascache.Key
	arts []cascache.Artifact
	simS float64
}

// pass runs the grid against store: through campaign.Run on the pool
// when untraced, else as a sequential replay of its stages.
func (c *campaignRun) pass(t *tracer, store *cascache.Store) error {
	c.store = store
	if t != nil {
		return c.replay(t)
	}
	res, stats, err := campaign.Run(c.entries, campaign.Options{Workers: poolWorkers, Store: store})
	if err != nil {
		return err
	}
	c.stats = stats
	c.served = make([]served, len(res))
	for i, r := range res {
		c.served[i] = served{r.Key, r.Artifacts, r.Meta.WallSec}
	}
	return nil
}

// replay performs campaign.Run's stages through each layer's public
// functions, in campaign.Run's order and with a span around every call:
// key and dedup every entry, probe the store for each distinct key,
// compile, simulate and encode the misses on the pool, then publish
// them in submission order.
func (c *campaignRun) replay(t *tracer) error {
	c.stats = campaign.Stats{Scenarios: len(c.entries)}
	c.served = make([]served, len(c.entries))
	keys := make([]cascache.Key, len(c.entries))
	firstOf := map[cascache.Key]int{}
	var uniques []int
	for i, e := range c.entries {
		id := t.begin(0, "cascache.key_s", e.Name)
		k, err := cascache.ScenarioKey(e.Spec, e.Platform, e.Faults, e.Seed)
		t.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		keys[i] = k
		if _, dup := firstOf[k]; dup {
			continue
		}
		firstOf[k] = i
		uniques = append(uniques, i)
	}
	c.stats.Unique = len(uniques)
	c.stats.DupHits = len(c.entries) - len(uniques)

	var misses []int
	for _, i := range uniques {
		id := t.begin(0, "cascache.get_s", c.entries[i].Name)
		ent, hit := c.store.Get(keys[i])
		t.end(id)
		if !hit {
			misses = append(misses, i)
			continue
		}
		c.stats.Hits++
		c.served[i] = served{keys[i], ent.Artifacts, ent.Meta.WallSec}
	}

	outs := pooled(t, poolWorkers, misses, func(i int) computed { return compute(t, c.entries[i]) })
	for j, i := range misses {
		o := outs[j]
		if o.err != nil {
			return fmt.Errorf("%s: %w", c.entries[i].Name, o.err)
		}
		c.stats.Misses++
		id := t.begin(0, "cascache.put_s", c.entries[i].Name)
		err := c.store.Put(keys[i], o.meta, o.arts)
		t.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", c.entries[i].Name, err)
		}
		c.served[i] = served{keys[i], o.arts, o.meta.WallSec}
	}

	for i := range c.served {
		if first := firstOf[keys[i]]; first != i {
			c.served[i] = c.served[first]
		}
		t.count("model.sim_s", c.served[i].simS) // in submission order, so the sum repeats exactly
	}
	st := c.store.Stats()
	t.count("cascache.disk_hits", float64(st.Hits-st.MRUHits))
	t.count("cascache.mru_hits", float64(st.MRUHits))
	t.count("cascache.puts", float64(st.Puts))
	return nil
}

// computed is one simulated miss of a campaign replay.
type computed struct {
	arts []cascache.Artifact
	meta cascache.Meta
	err  error
}

// compute is the part of campaign.Run a pool worker does for one miss:
// compile, simulate under the capture contract, encode.
func compute(t *tracer, e campaign.Entry) computed {
	sid := t.begin(0, "scenario", e.Name)
	defer t.end(sid)
	id := t.begin(sid, "wldsl.compile_s", e.Name)
	prog, err := wldsl.Compile(e.Spec)
	t.end(id)
	if err != nil {
		return computed{err: err}
	}
	id = t.begin(sid, "workloads.run_s", e.Name)
	run := prog.Run(wldsl.RunConfig{
		Machine: e.Platform, Seed: e.Seed, Faults: e.Faults,
		Mode: ipmio.TraceMode | ipmio.ProfileMode, Telemetry: true, // campaign.Run's capture contract
	})
	t.end(id)
	id = t.begin(sid, "tracefmt.encode_s", e.Name)
	arts, meta, err := cascache.CaptureRun(run, e.Seed)
	t.end(id)
	t.addRun(run) // integer counts: their sum does not depend on the order workers finish
	for _, a := range arts {
		t.count("tracefmt.bytes", float64(len(a.Data)))
	}
	return computed{arts, meta, err}
}

// digests checks the last pass's campaign statistics against want and
// digests every entry's artifact set.
func (c *campaignRun) digests(want campaign.Stats) ([]opOut, error) {
	got := c.stats
	got.BytesServed, got.BytesComputed = 0, 0
	if got != want {
		return nil, fmt.Errorf("campaign stats %+v, want %+v", got, want)
	}
	if st := c.store.Stats(); st.Corrupt != 0 {
		return nil, fmt.Errorf("store evicted %d corrupt entries", st.Corrupt)
	}
	outs := make([]opOut, len(c.entries))
	memo := map[cascache.Key]string{}
	for i, s := range c.served {
		d, ok := memo[s.key]
		if !ok {
			d = artifactDigest(s.arts)
			memo[s.key] = d
		}
		outs[i] = opOut{name: c.entries[i].Name, digest: d}
		if len(s.arts) == 0 || s.simS <= 0 {
			outs[i].err = fmt.Errorf("%s: empty artifact set or non-positive simulated wall", c.entries[i].Name)
		}
	}
	c.served = nil
	return outs, nil
}

// artifactDigest identifies an artifact set by each artifact's name,
// length and CRC-32C. The store already re-verifies every artifact's
// SHA-256 on read; this check only has to catch a set that differs from
// another pass's, and a SHA-256 of the ~200 MB a warm pass serves would
// take as long as the pass itself.
func artifactDigest(arts []cascache.Artifact) string {
	h := sha256.New()
	for _, a := range arts {
		fmt.Fprintf(h, "%s %d %08x\n", a.Name, len(a.Data), crc32.Checksum(a.Data, castagnoli))
	}
	return hex.EncodeToString(h.Sum(nil))
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// cold is campaign-cold: every pass runs the grid against a new, empty
// store in a fresh directory.
type cold struct {
	campaignRun
	tmp, dir string
}

func setupCold(e env) (instance, error) {
	entries, unique, err := campaignGrid(e)
	if err != nil {
		return nil, err
	}
	return &cold{campaignRun: campaignRun{entries: entries, unique: unique}, tmp: e.tmp}, nil
}

func (c *cold) ops() int { return len(c.entries) }

func (c *cold) run(t *tracer) error {
	dir, err := os.MkdirTemp(c.tmp, "cold-")
	if err != nil {
		return err
	}
	c.dir = dir
	store, err := cascache.Open(dir)
	if err != nil {
		return err
	}
	return c.pass(t, store)
}

func (c *cold) verify() ([]opOut, error) {
	outs, err := c.digests(campaign.Stats{
		Scenarios: len(c.entries), Unique: c.unique, Misses: c.unique, DupHits: len(c.entries) - c.unique,
	})
	return outs, errors.Join(err, c.close())
}

func (c *cold) close() error {
	if c.dir == "" {
		return nil
	}
	defer func() { c.dir = "" }()
	return os.RemoveAll(c.dir)
}

// warm is campaign-warm: the set-up populates a store with the grid,
// and every pass reopens it, as a new campaign process would, so the
// in-process MRU layer starts empty and every unique key is read from
// disk and re-verified.
type warm struct {
	campaignRun
	dir  string
	want []opOut // the set-up's artifact digests
}

func setupWarm(e env) (instance, error) {
	entries, unique, err := campaignGrid(e)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.tmp, "warm-")
	if err != nil {
		return nil, err
	}
	w := &warm{campaignRun: campaignRun{entries: entries, unique: unique}, dir: dir}
	store, err := cascache.Open(dir)
	if err == nil {
		err = w.pass(nil, store)
	}
	if err == nil {
		w.want, err = w.digests(campaign.Stats{
			Scenarios: len(entries), Unique: unique, Misses: unique, DupHits: len(entries) - unique,
		})
	}
	if err != nil {
		return nil, errors.Join(err, w.close())
	}
	return w, nil
}

func (w *warm) ops() int { return len(w.entries) }

func (w *warm) run(t *tracer) error {
	store, err := cascache.Open(w.dir)
	if err != nil {
		return err
	}
	return w.pass(t, store)
}

func (w *warm) verify() ([]opOut, error) {
	outs, err := w.digests(campaign.Stats{
		Scenarios: len(w.entries), Unique: w.unique, Hits: w.unique, DupHits: len(w.entries) - w.unique,
	})
	if err != nil {
		return nil, err
	}
	for i := range outs {
		if outs[i].err == nil && outs[i].digest != w.want[i].digest {
			outs[i].err = fmt.Errorf("%s: served artifacts differ from the set-up's", outs[i].name)
		}
	}
	return outs, nil
}

func (w *warm) close() error { return os.RemoveAll(w.dir) }
