// Command ensemblecampaign runs a batch campaign: a grid/list of
// workload scenarios, deduplicated against the content-addressed run
// cache (internal/cascache) so each distinct scenario is computed at
// most once — run once, serve millions.
//
// Usage:
//
//	ensemblecampaign -campaign FILE [-machine franklin|franklin-patched|jaguar]
//	    [-j N] [-cache DIR] [-cache-verify] [-out DIR]
//	    [-telemetry FILE] [-progress] [-prof PREFIX] [-version]
//
// The campaign file is the JSON grid campaign.Grid documents: entries
// naming a spec file (relative to the campaign file) or a generator
// seed, each expanded over its seeds, with "machine", "faults" and
// "seeds" defaulting from the campaign level. The grid is parsed
// strictly and bounded (campaign.ParseGrid). Duplicate scenarios are served from their first occurrence,
// cached scenarios from the store; only true misses are scheduled on
// the run pool (-j workers; results are byte-identical at any value).
//
// -out writes each scenario's artifact set as NAME-kXXXXXXXX-seedS.*
// (the scenario-key prefix makes names collision-free by
// construction). -telemetry writes the cache-effectiveness counter
// family (cascache.*) as a standard telemetry snapshot — feed it to
// tracestat. -cache-verify recomputes every hit and fails on any
// byte difference.
//
// A scenario whose run fails (a simulation panic included) costs only
// itself: the rest of the grid completes and is written, each failed
// entry gets one line on stderr, and the exit status is 1.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"ensembleio"
	"ensembleio/internal/cliutil"
	"ensembleio/internal/ensemble/campaign"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ensemblecampaign: ")
	var (
		campPath = flag.String("campaign", "", "campaign grid (JSON); see the package comment for the format")
		machine  = flag.String("machine", "franklin", "default platform profile: franklin, franklin-patched, jaguar")
		workers  = flag.Int("j", 0, "max parallel runs (0 = all cores); results are identical at any value")
		outDir   = flag.String("out", "", "write every scenario's artifact set into this directory")
		telOut   = flag.String("telemetry", "", "write the cache-effectiveness counters (telemetry snapshot JSON) to this file")
		progress = flag.Bool("progress", false, "render a live completion meter on stderr")
		profOut  = flag.String("prof", "", "write CPU/heap profiles to PREFIX.{cpu,heap}.pprof")
		version  = flag.Bool("version", false, "print build version and exit")
	)
	cacheDir, cacheVerify := cliutil.CacheFlags()
	flag.Parse()
	if flag.NArg() > 0 {
		log.Fatalf("unexpected argument %q (all inputs are flags)", flag.Arg(0))
	}
	if *version {
		fmt.Println(cliutil.Version())
		return
	}
	if *campPath == "" {
		log.Fatal("-campaign FILE is required")
	}
	if *cacheVerify && *cacheDir == "" {
		log.Fatal("-cache-verify needs -cache DIR")
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

	camp, err := campaign.LoadGrid(*campPath)
	if err != nil {
		log.Fatal(err)
	}
	entries, err := camp.Expand(filepath.Dir(*campPath), *machine)
	if err != nil {
		log.Fatal(err)
	}

	var store *ensembleio.CacheStore
	if *cacheDir != "" {
		if store, err = ensembleio.OpenCache(*cacheDir); err != nil {
			log.Fatal(err)
		}
	}
	var meter ensembleio.Progress
	if *progress {
		meter = ensembleio.StderrProgress(os.Stderr, "campaign")
	}
	results, stats, err := ensembleio.RunCampaign(entries, ensembleio.CampaignOptions{
		Workers:  *workers,
		Store:    store,
		Verify:   *cacheVerify,
		Progress: meter,
	})
	if err != nil {
		log.Fatal(err)
	}

	name := camp.Name
	if name == "" {
		name = filepath.Base(*campPath)
	}
	fmt.Printf("campaign %s: %d scenario(s), %d unique\n", name, stats.Scenarios, stats.Unique)
	for i, res := range results {
		if res.Err != nil {
			fmt.Printf("  %-28s seed %-4d %-5s failed\n", res.Name, entries[i].Seed, res.Source)
			continue
		}
		agg := 0.0
		if res.Meta.WallSec > 0 {
			agg = float64(res.Meta.TotalBytes) / 1e6 / res.Meta.WallSec
		}
		fmt.Printf("  %-28s seed %-4d %-5s wall %8.1f s   aggregate %8.0f MB/s\n",
			res.Name, entries[i].Seed, res.Source, res.Meta.WallSec, agg)
	}
	verified := ""
	if *cacheVerify {
		verified = ", verified"
	}
	fmt.Printf("cache: %d hit(s), %d miss(es), %d dup(s), %s served, %s computed%s\n",
		stats.Hits, stats.Misses, stats.DupHits,
		cliutil.FormatBytes(stats.BytesServed), cliutil.FormatBytes(stats.BytesComputed), verified)

	if *telOut != "" {
		f, err := os.Create(*telOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := ensembleio.SaveTelemetrySnapshot(f, stats.Snapshot()); err != nil {
			f.Close() //lint:allow(errclose) already failing; the save error wins
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("cache counters written to %s\n", *telOut)
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			log.Fatal(err)
		}
		for i, res := range results {
			base := fmt.Sprintf("%s-k%s-seed%d", res.Name, res.Key.Short(), entries[i].Seed)
			for _, a := range res.Artifacts {
				if err := os.WriteFile(filepath.Join(*outDir, base+"."+a.Name), a.Data, 0o644); err != nil {
					log.Fatal(err)
				}
			}
		}
		fmt.Printf("artifacts written to %s\n", *outDir)
	}
	if n := cliutil.ReportFailed(entries, results); n > 0 {
		if err := stopProf(); err != nil {
			log.Print(err)
		}
		log.Fatalf("%d of %d scenario(s) failed", n, len(results))
	}
}
