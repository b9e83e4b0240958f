package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"
)

// record is everything one child measured for one workload.
type record struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	PassS     summary                `json:"pass_s"`
	Digests   map[string]string      `json:"digests"`
	Errors    []string               `json:"errors,omitempty"`
}

// metricValue is one reported metric. Stats is set for metrics
// measured once per pass or per set-up; Value is then their median.
type metricValue struct {
	Value float64  `json:"value"`
	Unit  string   `json:"unit"`
	Stats *summary `json:"stats,omitempty"`
}

func perPass(xs []float64, unit string) metricValue {
	s := summarize(xs)
	return metricValue{Value: s.Median, Unit: unit, Stats: &s}
}

// plan is how measure runs a workload.
type plan struct {
	setups  int     // set-ups; setup_s is their median
	seconds float64 // pass time to accumulate on untraced passes
	traced  float64 // least duration of the traced pass; 0 skips it
}

const (
	// setupReps is how often a benchmark run sets its workload up.
	setupReps = 3
	// tracedSeconds is how long a benchmark run's traced pass lasts at
	// least: it repeats a short pass so that the CPU profile (100 Hz)
	// has samples enough to attribute.
	tracedSeconds = 2.0
	// maxErrors caps the failure messages a record keeps.
	maxErrors = 20
)

// event is one line of the child-to-parent protocol on the child's
// standard output: Begin announces a pass of that many operations, End
// closes it with its failure count, and Record carries the result.
type event struct {
	Begin  int     `json:"begin,omitempty"`
	End    int     `json:"end,omitempty"`
	Failed int     `json:"failed,omitempty"`
	Record *record `json:"record,omitempty"`
}

type emitter struct{ enc *json.Encoder }

func (em emitter) emit(ev event) {
	if err := em.enc.Encode(ev); err != nil {
		panic(fmt.Sprintf("bench: writing to the parent: %v", err))
	}
}

// measure runs one workload in this process as p says: set-ups, each
// ending in a reference pass, then untraced passes, then a traced pass.
// It reports progress through em.
func measure(w workload, e env, p plan, outDir string, em emitter) (rec *record, err error) {
	rec = &record{Workload: w.name, Seed: e.seed, Metrics: map[string]metricValue{}, Digests: map[string]string{}}
	var ref []opOut // the first reference pass's outputs; every later pass must reproduce them
	var setups []float64
	var inst instance
	for i := 0; i < p.setups; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
		}
		var dt float64
		if inst, dt, err = setUp(w, e, rec, em, &ref); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, dt)
	}
	defer func() { err = errors.Join(err, inst.close()) }()
	rec.Metrics["setup_s"] = perPass(setups, "s")

	var passS, rates []float64
	var rt runtimeUse
	for sum(passS) < p.seconds || len(passS) == 0 {
		runtime.GC()
		em.emit(event{Begin: inst.ops()})
		before := readRuntime()
		start := time.Now()
		runErr := inst.run(nil)
		dt := time.Since(start).Seconds()
		rt = rt.plus(readRuntime().minus(before))
		failed := rec.check(inst, runErr, &ref)
		em.emit(event{End: inst.ops(), Failed: failed})
		passS = append(passS, dt)
		rates = append(rates, float64(inst.ops())/dt)
	}
	ops := float64(inst.ops() * len(passS))
	rec.PassS = summarize(passS)
	rec.Metrics["scenarios_per_s"] = perPass(rates, "1/s")
	rec.Metrics["alloc_mb_per_scenario"] = metricValue{Value: rt.allocBytes / 1e6 / ops, Unit: "MB"}
	rec.Metrics["peak_rss_mb"] = metricValue{Value: peakRSSMB(), Unit: "MB"}
	rec.Metrics["go-runtime.gc_cpu_s"] = metricValue{Value: rt.gcCPU / ops, Unit: "s"}
	rec.Metrics["go-runtime.gc_cycles"] = metricValue{Value: rt.gcCycles / ops, Unit: "count"}
	if p.traced > 0 {
		if err := tracedPass(w, inst, p.traced, rec.PassS.Median, filepath.Join(outDir, w.name), rec, em, &ref); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// setUp builds w's inputs and runs the reference pass on them: the
// time to a workload's first checked result. It returns the instance
// and how long both steps took. The reference pass is checked like any
// other, outside that time.
//
// A set-up without the reference pass builds only a few structures for
// gcrm-flagship and paper-figs, or loads 11 small specs for
// campaign-cold. Those take from 0.1 µs to 1 ms, and their median moves
// by up to 2.4× from one process to the next on the 2-vCPU machine the
// benchmark was sized on. With the reference pass, set-up is seconds of
// simulation, which holds steady from run to run.
func setUp(w workload, e env, rec *record, em emitter, ref *[]opOut) (instance, float64, error) {
	runtime.GC()
	start := time.Now()
	inst, err := w.setup(e)
	if err != nil {
		return nil, 0, err
	}
	build := time.Since(start)
	em.emit(event{Begin: inst.ops()})
	start = time.Now()
	runErr := inst.run(nil)
	dt := (build + time.Since(start)).Seconds()
	em.emit(event{End: inst.ops(), Failed: rec.check(inst, runErr, ref)})
	return inst, dt, nil
}

// check verifies the pass just run and returns how many of its
// operations failed: the pass errored, an output check failed, or a
// digest differs from the first reference pass's.
func (rec *record) check(inst instance, runErr error, ref *[]opOut) (failed int) {
	n := inst.ops()
	rec.Attempted += n
	outs, err := inst.verify()
	if err = errors.Join(runErr, err); err != nil {
		rec.fail(n, err)
		return n
	}
	if *ref == nil {
		*ref = outs
	}
	for i, o := range outs {
		switch {
		case o.err != nil:
			rec.fail(1, o.err)
			failed++
		case o.digest != (*ref)[i].digest:
			rec.fail(1, fmt.Errorf("%s: output digest differs from the first reference pass's", o.name))
			failed++
		}
		rec.Digests[o.name] = o.digest
	}
	return failed
}

func (rec *record) fail(n int, err error) {
	rec.Failed += n
	if len(rec.Errors) < maxErrors {
		rec.Errors = append(rec.Errors, err.Error())
	}
}

// tracedPass runs inst under tracing — CPU and heap profiles, Run
// telemetry, stage spans — repeating it until about seconds have
// passed, and adds the per-layer metrics to rec. Profiles bracket only
// the passes; output checks run outside them.
func tracedPass(w workload, inst instance, seconds, untracedMedian float64, dir string, rec *record, em emitter, ref *[]opOut) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	reps := int(math.Ceil(seconds / untracedMedian))
	t := newTracer()
	var counters map[string]float64 // the first repetition's; the others repeat them
	cpuNS, allocB := map[string]int64{}, map[string]int64{}
	var wall float64
	for i := 0; i < reps; i++ {
		em.emit(event{Begin: inst.ops()})
		runtime.GC()
		heap0, err := allocProfile()
		if err != nil {
			return err
		}
		var cpu bytes.Buffer
		if err := pprof.StartCPUProfile(&cpu); err != nil {
			return err
		}
		start := time.Now()
		runErr := inst.run(t)
		wall += time.Since(start).Seconds()
		pprof.StopCPUProfile()
		runtime.GC()
		heap1, err := allocProfile()
		if err != nil {
			return err
		}
		em.emit(event{End: inst.ops(), Failed: rec.check(inst, runErr, ref)})
		if i == 0 {
			counters = maps.Clone(t.counters)
		}

		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("cpu.%d.pprof", i)), cpu.Bytes(), 0o644); err != nil {
			return err
		}
		if err := foldInto(cpuNS, cpu.Bytes(), "cpu/nanoseconds", 1); err != nil {
			return err
		}
		if err := foldInto(allocB, heap1, "alloc_space/bytes", 1); err != nil {
			return err
		}
		if err := foldInto(allocB, heap0, "alloc_space/bytes", -1); err != nil {
			return err
		}
		if i == reps-1 {
			if err := os.WriteFile(filepath.Join(dir, "allocs.pprof"), heap1, 0o644); err != nil {
				return err
			}
		}
	}
	if err := t.writeSpans(filepath.Join(dir, "spans.jsonl")); err != nil {
		return err
	}

	for _, m := range workCounters {
		rec.Metrics[m.Name] = metricValue{Value: counters[m.Name] / float64(inst.ops()), Unit: m.Unit}
	}
	n := float64(reps * inst.ops())
	var cpuTotal int64
	for _, v := range cpuNS {
		cpuTotal += v
	}
	for _, l := range profiledLayers {
		rec.Metrics[l+".cpu_s"] = metricValue{Value: float64(cpuNS[l]) / 1e9 / n, Unit: "s"}
		rec.Metrics[l+".alloc_mb"] = metricValue{Value: float64(allocB[l]) / 1e6 / n, Unit: "MB"}
	}
	spans := t.spanTotals()
	for _, s := range stageSpans {
		rec.Metrics[s] = metricValue{Value: spans[s] / n, Unit: "s"}
	}
	rec.Metrics["runpool.util"] = metricValue{Value: t.busy.Seconds() / (float64(w.workers) * wall), Unit: "ratio"}
	rec.Metrics["trace.overhead"] = metricValue{Value: wall / float64(reps) / untracedMedian, Unit: "ratio"}
	rec.Metrics["trace.span_cover"] = metricValue{Value: t.covered(stageSpans) / wall, Unit: "ratio"}
	attributed := 0.0
	if cpuTotal > 0 {
		attributed = 1 - float64(cpuNS[runtimeLayer])/float64(cpuTotal)
	}
	rec.Metrics["trace.cpu_attributed"] = metricValue{Value: attributed, Unit: "ratio"}
	return nil
}

// allocProfile snapshots the cumulative heap allocation profile.
func allocProfile() ([]byte, error) {
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// foldInto adds sign × the profile's per-layer totals of sample type
// typ to dst.
func foldInto(dst map[string]int64, gz []byte, typ string, sign int64) error {
	p, err := parseProfile(gz)
	if err != nil {
		return err
	}
	i, err := p.valueIndex(typ)
	if err != nil {
		return err
	}
	for l, v := range byLayer(p.byFunction(i)) {
		dst[l] += sign * v
	}
	return nil
}

// runtimeUse is what the Go runtime reports about a span of passes.
type runtimeUse struct{ allocBytes, gcCPU, gcCycles float64 }

func readRuntime() runtimeUse {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return runtimeUse{float64(s[0].Value.Uint64()), s[1].Value.Float64(), float64(s[2].Value.Uint64())}
}

func (a runtimeUse) plus(b runtimeUse) runtimeUse {
	return runtimeUse{a.allocBytes + b.allocBytes, a.gcCPU + b.gcCPU, a.gcCycles + b.gcCycles}
}

func (a runtimeUse) minus(b runtimeUse) runtimeUse {
	return runtimeUse{a.allocBytes - b.allocBytes, a.gcCPU - b.gcCPU, a.gcCycles - b.gcCycles}
}

// peakRSSMB is this process's maximum resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// childReport is the parent's view of one child: its record (nil when
// it died before sending one) and the operations it attempted and
// failed, counting every operation of a pass it did not finish.
type childReport struct {
	rec               *record
	attempted, failed int
	err               error
	stderrTail        string
}

// stderrTailBytes is how much of a failed child's standard error the
// parent prints.
const stderrTailBytes = 4096

// runChild runs cmd, which speaks the event protocol on its standard
// output, forwards its standard error, and accounts for its
// operations. Build cmd with exec.CommandContext to bound its life.
func runChild(cmd *exec.Cmd) childReport {
	var rep childReport
	tail := &tailBuffer{max: stderrTailBytes}
	cmd.Stderr = io.MultiWriter(os.Stderr, tail)
	out, err := cmd.StdoutPipe()
	if err != nil {
		rep.err = err
		return rep.finish(0, tail)
	}
	if err := cmd.Start(); err != nil {
		rep.err = err
		return rep.finish(0, tail)
	}

	inflight := 0
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	for sc.Scan() {
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			rep.err = fmt.Errorf("child protocol: %w", err)
			break
		}
		switch {
		case ev.Record != nil:
			rep.rec = ev.Record
		case ev.Begin > 0:
			inflight = ev.Begin
		case ev.End > 0:
			rep.attempted += ev.End
			rep.failed += ev.Failed
			inflight = 0
		}
	}
	// Drain so the child never blocks on a full pipe; a read error
	// here also surfaces as the child's exit status.
	_, _ = io.Copy(io.Discard, out)
	if err := cmd.Wait(); err != nil && rep.err == nil {
		rep.err = err
	}
	return rep.finish(inflight, tail)
}

// finish charges a dead child's unfinished operations as failed.
func (rep childReport) finish(inflight int, tail *tailBuffer) childReport {
	if rep.err == nil && rep.rec != nil {
		return rep
	}
	rep.rec = nil
	rep.attempted += inflight
	rep.failed += inflight
	if rep.attempted == 0 {
		rep.attempted, rep.failed = 1, 1
	}
	rep.stderrTail = tail.String()
	return rep
}

// tailBuffer keeps the last max bytes written to it.
type tailBuffer struct {
	max int
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - t.max; over > 0 {
		t.buf = append(t.buf[:0], t.buf[over:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string { return string(t.buf) }
