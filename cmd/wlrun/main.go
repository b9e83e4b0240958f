// Command wlrun compiles and runs declarative workload specs
// (internal/wldsl) on the simulated machine: specs in, artifacts out.
// It is the generic front end to the same engine the dedicated
// workload CLIs (iorbench, madbench, gcrmio) drive — any spec from
// testdata/scenarios/workloads/, or one you write, runs with the
// standard runtime knobs.
//
// Usage:
//
//	wlrun -spec FILE [-spec FILE ...] [-gen LO-HI]
//	      [-machine franklin|franklin-patched|jaguar]
//	      [-seed N] [-runs N] [-j N] [-faults scenario.json]
//	      [-cache DIR] [-cache-verify] [-out DIR]
//	      [-trace FILE] [-traceformat binary|jsonl|chrome|spans]
//	      [-telemetry FILE] [-prof PREFIX] [-version]
//	wlrun -spec FILE -validate
//	wlrun -spec FILE -canonicalize
//	wlrun -gen SEED
//
// The batch is every spec (repeated -spec files, plus the generated
// specs of a -gen LO-HI range) crossed with -runs seeds (seed,
// seed+1, ...), scheduled on up to -j workers with an ordered
// reduction; artifacts land in -out as NAME-seedS.trace.bin (plus
// .telemetry.json / .spans.jsonl). When two distinct specs in the
// batch share a name, their artifact basenames gain the scenario-key
// prefix (NAME-kXXXXXXXX-seedS) so they cannot collide.
//
// -cache DIR serves repeated scenarios from the content-addressed run
// cache (internal/cascache) instead of recomputing them; a hit is
// byte-identical to a fresh run, and -cache-verify recomputes every
// hit and proves it. A run that fails (a simulation panic included)
// costs only itself: the rest of the batch completes and is written,
// each failed run gets one line on stderr, and the exit status is 1.
//
// -validate checks the spec and prints its compiled footprint without
// running. -canonicalize rewrites the spec file in the canonical
// encoding. A single-value -gen SEED prints the
// seeded generator's spec for that seed to stdout (the corpus
// families the determinism suite fuzzes).
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"ensembleio"
	"ensembleio/internal/cascache"
	"ensembleio/internal/cliutil"
	"ensembleio/internal/wldsl"
)

// specList accumulates repeated -spec flags.
type specList []string

func (s *specList) String() string     { return strings.Join(*s, ",") }
func (s *specList) Set(v string) error { *s = append(*s, v); return nil }

func main() {
	log.SetFlags(0)
	log.SetPrefix("wlrun: ")
	var specPaths specList
	flag.Var(&specPaths, "spec", "workload spec JSON (repeat to batch several specs)")
	var (
		machine  = flag.String("machine", "franklin", "platform profile: franklin, franklin-patched, jaguar")
		seed     = flag.Int64("seed", 1, "base run seed (vary to model run-to-run conditions)")
		runs     = flag.Int("runs", 1, "number of seeded runs per spec (seeds seed..seed+runs-1)")
		workers  = flag.Int("j", 1, "max parallel runs (0 = all cores); results are identical at any value")
		scenario = flag.String("faults", "", "inject the fault scenario from this JSON file")
		outDir   = flag.String("out", "", "write per-run artifacts into this directory")
		trace    = flag.String("trace", "", "write the first run's trace to this file")
		format   = flag.String("traceformat", "binary", "trace encoding: binary, jsonl, chrome, spans")
		telOut   = flag.String("telemetry", "", "write the first run's telemetry metric snapshot (JSON) to this file")
		validate = flag.Bool("validate", false, "validate and print the compiled footprint, don't run")
		canon    = flag.Bool("canonicalize", false, "rewrite -spec in the canonical encoding and exit")
		gen      = flag.String("gen", "", "SEED prints the generated spec and exits; LO-HI adds the generated specs of that seed range to the batch")
		profOut  = flag.String("prof", "", "write wall-clock CPU/heap profiles to PREFIX.cpu.pprof / PREFIX.heap.pprof")
		version  = flag.Bool("version", false, "print build version and exit")
	)
	cacheDir, cacheVerify := cliutil.CacheFlags()
	flag.Parse()
	// A stray positional argument is always a mangled invocation
	// (e.g. a value-taking flag that swallowed the next flag name);
	// running with half the flags silently applied would mislead.
	if flag.NArg() > 0 {
		log.Fatalf("unexpected argument %q (all inputs are flags; check that value-taking flags like -telemetry FILE got their value)", flag.Arg(0))
	}
	if *version {
		fmt.Println(cliutil.Version())
		return
	}

	genLo, genHi, genRange, err := parseGen(*gen)
	if err != nil {
		log.Fatal(err)
	}
	if *gen != "" && !genRange {
		// Single-value -gen keeps its print-and-exit contract.
		if err := ensembleio.EncodeWorkload(os.Stdout, ensembleio.GenerateWorkload(genLo)); err != nil {
			log.Fatal(err)
		}
		return
	}
	if len(specPaths) == 0 && !genRange {
		log.Fatal("-spec is required (or -gen SEED / -gen LO-HI)")
	}

	specs := make([]*ensembleio.WorkloadSpec, 0, len(specPaths))
	for _, path := range specPaths {
		spec, err := ensembleio.LoadWorkload(path)
		if err != nil {
			log.Fatal(err)
		}
		specs = append(specs, spec)
	}
	if *canon {
		if len(specPaths) != 1 {
			log.Fatal("-canonicalize wants exactly one -spec")
		}
		if err := rewriteCanonical(specPaths[0], specs[0]); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s canonicalized\n", specPaths[0])
		return
	}
	if genRange {
		for s := genLo; s <= genHi; s++ {
			specs = append(specs, ensembleio.GenerateWorkload(s))
		}
	}

	progs := make([]*ensembleio.WorkloadProgram, len(specs))
	for i, spec := range specs {
		if progs[i], err = ensembleio.CompileWorkload(spec); err != nil {
			log.Fatal(err)
		}
	}
	if *validate {
		if len(specPaths) != 1 || genRange {
			log.Fatal("-validate wants exactly one -spec")
		}
		fmt.Printf("%s: valid\n", specPaths[0])
		fmt.Printf("  tasks: %d   ranks: %d\n", specs[0].Tasks, progs[0].Ranks())
		fmt.Printf("  trace events: ~%d\n", progs[0].Events())
		fmt.Printf("  logical bytes: %d (%.0f MB)\n", progs[0].TotalBytes(), float64(progs[0].TotalBytes())/1e6)
		return
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
	switch *format {
	case "binary", "jsonl", "chrome", "spans":
	default:
		log.Fatalf("unknown -traceformat %q (want binary, jsonl, chrome, or spans)", *format)
	}
	prof, err := platform(*machine)
	if err != nil {
		log.Fatal(err)
	}
	fs, err := loadScenario(*scenario)
	if err != nil {
		log.Fatal(err)
	}
	if *runs < 1 {
		log.Fatalf("-runs %d: want at least 1", *runs)
	}
	if *cacheVerify && *cacheDir == "" {
		log.Fatal("-cache-verify needs -cache DIR")
	}

	// The batch: specs crossed with seeds, spec-major, so output lines
	// group per spec in flag order.
	var entries []ensembleio.CampaignEntry
	var seeds []int64
	for _, spec := range specs {
		for r := 0; r < *runs; r++ {
			entries = append(entries, ensembleio.CampaignEntry{
				Name:     spec.Name,
				Spec:     spec,
				Platform: prof,
				Faults:   fs,
				Seed:     *seed + int64(r),
			})
			seeds = append(seeds, *seed+int64(r))
		}
	}

	var store *ensembleio.CacheStore
	if *cacheDir != "" {
		if store, err = ensembleio.OpenCache(*cacheDir); err != nil {
			log.Fatal(err)
		}
	}
	results, stats, err := ensembleio.RunCampaign(entries, ensembleio.CampaignOptions{
		Workers: *workers,
		Store:   store,
		Verify:  *cacheVerify,
	})
	if err != nil {
		log.Fatal(err)
	}

	i := 0
	for si, spec := range specs {
		fmt.Printf("%s on %s: %d tasks (%d ranks), %d run(s)\n",
			spec.Name, *machine, spec.Tasks, progs[si].Ranks(), *runs)
		if fs != nil && si == 0 {
			fmt.Printf("faults: %s\n", fs)
		}
		for r := 0; r < *runs; r++ {
			res := results[i]
			if res.Err != nil {
				fmt.Printf("  seed %-4d failed\n", seeds[i])
			} else {
				agg := 0.0
				if res.Meta.WallSec > 0 {
					agg = float64(res.Meta.TotalBytes) / 1e6 / res.Meta.WallSec
				}
				fmt.Printf("  seed %-4d wall %8.1f s   aggregate %8.0f MB/s\n",
					seeds[i], res.Meta.WallSec, agg)
			}
			i++
		}
	}
	if store != nil {
		verified := ""
		if *cacheVerify {
			verified = ", verified"
		}
		fmt.Printf("cache: %d hit(s), %d miss(es), %d dup(s), %s served%s\n",
			stats.Hits, stats.Misses, stats.DupHits, fmtBytes(stats.BytesServed), verified)
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			log.Fatal(err)
		}
		collide := collidingNames(specs)
		for i, res := range results {
			if res.Err != nil {
				continue
			}
			base := artifactBase(res.Name, res.Key, seeds[i], collide[res.Name])
			if err := writeArtifacts(*outDir, base, res, *format); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("artifacts written to %s\n", *outDir)
	}
	if *trace != "" && results[0].Err == nil {
		if err := writeServed(*trace, results[0], traceArtifact(*format)); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace written to %s (%s)\n", *trace, *format)
	}
	if *telOut != "" && results[0].Err == nil {
		if err := writeServed(*telOut, results[0], cascache.ArtTelemetry); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("telemetry written to %s\n", *telOut)
	}
	if n := cliutil.ReportFailed(entries, results); n > 0 {
		if err := stopProf(); err != nil {
			log.Print(err)
		}
		log.Fatalf("%d of %d run(s) failed", n, len(results))
	}
}

// parseGen interprets -gen: "" (unset), "SEED" (print-and-exit), or
// "LO-HI" (batch range, inclusive).
func parseGen(s string) (lo, hi int64, isRange bool, err error) {
	if s == "" {
		return 0, 0, false, nil
	}
	if i := strings.IndexByte(s, '-'); i > 0 { // "-5" is a single negative seed, not a range
		lo, errLo := strconv.ParseInt(s[:i], 10, 64)
		hi, errHi := strconv.ParseInt(s[i+1:], 10, 64)
		if errLo != nil || errHi != nil || lo > hi {
			return 0, 0, false, fmt.Errorf("-gen %q: want SEED or LO-HI with LO <= HI", s)
		}
		return lo, hi, true, nil
	}
	lo, err = strconv.ParseInt(s, 10, 64)
	if err != nil || lo < 0 {
		return 0, 0, false, fmt.Errorf("-gen %q: want a non-negative SEED or LO-HI", s)
	}
	return lo, 0, false, nil
}

// collidingNames reports the spec names claimed by two or more
// *distinct* specs (different canonical bytes) in the batch — the case
// where NAME-seedS artifact files would silently overwrite each other.
func collidingNames(specs []*ensembleio.WorkloadSpec) map[string]bool {
	digests := map[string][32]byte{}
	collide := map[string]bool{}
	for _, spec := range specs {
		canon, err := wldsl.CanonicalBytes(spec)
		if err != nil {
			continue // compile already validated; unreachable
		}
		d := sha256.Sum256(canon)
		if prev, ok := digests[spec.Name]; ok && prev != d {
			collide[spec.Name] = true
		}
		digests[spec.Name] = d
	}
	return collide
}

// artifactBase names one run's artifact files. When two distinct
// specs in the batch share a name, the scenario-key prefix keeps
// their files apart (NAME-seedS alone would silently overwrite).
func artifactBase(name string, key ensembleio.CacheKey, seed int64, collides bool) string {
	if collides {
		return fmt.Sprintf("%s-k%s-seed%d", name, key.Short(), seed)
	}
	return fmt.Sprintf("%s-seed%d", name, seed)
}

func traceArtifact(format string) string {
	return map[string]string{
		"binary": cascache.ArtTraceBin, "jsonl": cascache.ArtTraceJSON,
		"chrome": cascache.ArtChrome, "spans": cascache.ArtSpans,
	}[format]
}

func platform(name string) (ensembleio.Platform, error) {
	switch name {
	case "franklin":
		return ensembleio.Franklin(), nil
	case "franklin-patched":
		return ensembleio.FranklinPatched(), nil
	case "jaguar":
		return ensembleio.Jaguar(), nil
	}
	return ensembleio.Platform{}, fmt.Errorf("unknown machine %q", name)
}

func loadScenario(path string) (*ensembleio.Scenario, error) {
	if path == "" {
		return nil, nil
	}
	return ensembleio.LoadScenario(path)
}

func rewriteCanonical(path string, spec *ensembleio.WorkloadSpec) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return ensembleio.EncodeWorkload(f, spec)
}

// writeArtifacts saves one result's trace (in the selected format)
// plus its telemetry snapshot and span log.
func writeArtifacts(dir, base string, res ensembleio.CampaignResult, format string) error {
	ext := map[string]string{"binary": "trace.bin", "jsonl": "trace.jsonl",
		"chrome": "chrome.json", "spans": "spans.jsonl"}[format]
	if err := writeServed(filepath.Join(dir, base+"."+ext), res, traceArtifact(format)); err != nil {
		return err
	}
	if err := writeServed(filepath.Join(dir, base+".telemetry.json"), res, cascache.ArtTelemetry); err != nil {
		return err
	}
	return writeServed(filepath.Join(dir, base+".spans.jsonl"), res, cascache.ArtSpans)
}

// writeServed writes one named artifact of a result to path.
func writeServed(path string, res ensembleio.CampaignResult, name string) error {
	for _, a := range res.Artifacts {
		if a.Name == name {
			return os.WriteFile(path, a.Data, 0o644)
		}
	}
	return fmt.Errorf("%s: artifact %s missing from result", path, name)
}

func fmtBytes(n uint64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}
