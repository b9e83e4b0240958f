// Command bench is the simulator's benchmark: four workloads — the
// flagship GCRM run, the paper-figure suite, and a what-if campaign
// against a cold and a warm run cache — each measured end to end on
// untraced passes and broken down by layer on a traced one.
//
// Run it from the repository root through bench/run.sh, which builds
// this package into .bench_build first:
//
//	bash bench/run.sh -seed 1                  # every workload; writes bench/out/results.json
//	bash bench/run.sh --workload gcrm-flagship --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -compare A B             # two sets of runs against the bounds
//
// Every workload runs in a child process of its own (a re-exec of this
// binary), so peak RSS is per workload and a crash fails only that
// workload's operations. With --workload, the last line of standard
// output is one JSON object: correct, attempted, failed, and the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// See bench/README.md for the workloads, the metrics and what each
// layer metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload and print one JSON result line (default: every workload)")
		seed    = flag.Int64("seed", 1, "seed every workload input derives from")
		seconds = flag.Int("seconds", 20, "seconds of timed passes per workload")
		trace   = flag.Int("trace", 0, "with -workload: 0 reports end-to-end metrics, 1 per-layer metrics from a traced pass")
		outDir  = flag.String("out", filepath.Join("bench", "out"), "directory for results, spans and profiles")
		compare = flag.Bool("compare", false, "compare two sets of runs given as arguments, each a results file or a directory of them: -compare A B")
		child   = flag.Bool("child", false, "run the workload in this process (the parent re-executes itself with this flag)")
	)
	flag.Parse()
	if *compare {
		os.Exit(runCompare(flag.Args()))
	}
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: usage: bench [-workload NAME] [-seed N] [-seconds N] [-trace 0|1] [-out DIR] | -compare A B")
		os.Exit(2)
	}
	if *name != "" {
		if _, ok := workloadByName(*name); !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir}
	switch {
	case *child:
		os.Exit(childMain(*name, cfg))
	case *name != "":
		os.Exit(runOne(*name, cfg))
	default:
		cfg.trace = true
		os.Exit(runSuite(cfg, selfCommand))
	}
}

// runConfig is what a parent passes on to its workload children.
type runConfig struct {
	seed    int64
	seconds int
	trace   bool
	outDir  string
}

// childTimeout bounds one workload child: its set-ups, timed passes and
// traced pass.
func (c runConfig) childTimeout() time.Duration {
	return time.Duration(3*c.seconds+110) * time.Second
}

// selfCommand re-executes this binary as workload name's child.
func selfCommand(ctx context.Context, name string, c runConfig) *exec.Cmd {
	exe, err := os.Executable()
	if err != nil {
		exe = os.Args[0]
	}
	tr := "0"
	if c.trace {
		tr = "1"
	}
	return exec.CommandContext(ctx, exe, "-child", "-workload", name, "-seed", strconv.FormatInt(c.seed, 10),
		"-seconds", strconv.Itoa(c.seconds), "-trace", tr, "-out", c.outDir)
}

// childMain measures one workload in this process and sends the
// record to the parent.
func childMain(name string, c runConfig) int {
	w, _ := workloadByName(name)
	tmp := filepath.Join(c.outDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	em := emitter{json.NewEncoder(os.Stdout)}
	e := env{root: ".", tmp: tmp, seed: c.seed, sc: paperScale}
	p := plan{setups: setupReps, seconds: float64(c.seconds)}
	if c.trace {
		p.traced = tracedSeconds
	}
	rec, err := measure(w, e, p, c.outDir, em)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
		return 1
	}
	em.emit(event{Record: rec})
	return 0
}

// spawnFunc builds the command that runs one workload's child.
type spawnFunc func(ctx context.Context, name string, c runConfig) *exec.Cmd

func spawn(start spawnFunc, name string, c runConfig) childReport {
	ctx, cancel := context.WithTimeout(context.Background(), c.childTimeout())
	defer cancel()
	rep := runChild(start(ctx, name, c))
	if rep.err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: child failed: %v\n--- last %d bytes of its stderr ---\n%s\n---\n",
			name, rep.err, stderrTailBytes, rep.stderrTail)
	}
	return rep
}

// metricOut is one metric in the single-workload result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne measures one workload in a child and prints the result line.
func runOne(name string, c runConfig) int {
	rep := spawn(selfCommand, name, c)
	defs := endToEnd
	if c.trace {
		defs = perLayer()
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{rep.rec != nil && rep.failed == 0, rep.attempted, rep.failed, map[string]metricOut{}}
	if rep.rec != nil {
		for _, d := range defs {
			m := rep.rec.Metrics[d.Name]
			out.Metrics[d.Name] = metricOut{m.Value, d.Unit}
		}
		for _, msg := range rep.rec.Errors {
			fmt.Fprintln(os.Stderr, "bench: check failed:", msg)
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// results is the file a full run writes and -compare reads.
type results struct {
	Seed       int64              `json:"seed"`
	Seconds    int                `json:"seconds"`
	GoVersion  string             `json:"go_version"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Workloads  map[string]*record `json:"workloads"`
}

// paperGCRMBaselineS is the paper's Fig 6 baseline wall time, printed
// beside the flagship's simulated seconds for reference only.
const paperGCRMBaselineS = 310

// runSuite measures every workload, each in its own child, prints one
// "workload metric value unit" line per metric, and writes
// results.json. A failed child fails only its own workload.
func runSuite(c runConfig, start spawnFunc) int {
	res := results{Seed: c.seed, Seconds: c.seconds, GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Workloads: map[string]*record{}}
	defs := append(append([]metricDef(nil), endToEnd...), perLayer()...)
	status := 0
	for _, w := range allWorkloads {
		rep := spawn(start, w.name, c)
		fmt.Printf("# %s: %d of %d operations failed\n", w.name, rep.failed, rep.attempted)
		printMetric(w.name, failedFrac, float64(rep.failed)/float64(rep.attempted))
		if rep.rec == nil || rep.failed > 0 {
			status = 1
		}
		if rep.rec == nil {
			res.Workloads[w.name] = &record{Workload: w.name, Seed: c.seed, Attempted: rep.attempted, Failed: rep.failed,
				Errors: []string{fmt.Sprint(rep.err)}}
			continue
		}
		res.Workloads[w.name] = rep.rec
		for _, d := range defs {
			printMetric(w.name, d, rep.rec.Metrics[d.Name].Value)
		}
		if w.name == "gcrm-flagship" {
			fmt.Printf("# %s model.sim_s %.1f s; the paper's Fig 6 baseline is %d s\n",
				w.name, rep.rec.Metrics["model.sim_s"].Value, paperGCRMBaselineS)
		}
	}
	path := filepath.Join(c.outDir, "results.json")
	if err := writeJSON(path, res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println("# results:", path)
	return status
}

// printMetric prints one "workload metric value unit" line, the value
// with all its digits so that exact counters read exactly.
func printMetric(workload string, d metricDef, v float64) {
	fmt.Printf("%s %s %s %s\n", workload, d.Name, strconv.FormatFloat(v, 'f', -1, 64), d.Unit)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
