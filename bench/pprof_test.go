package main

import (
	"bytes"
	"compress/gzip"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

// spinHot is a known hot function: the CPU profile test expects its
// samples to dominate this package's bucket.
//
//go:noinline
func spinHot(n int) uint64 {
	x := uint64(n)
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + uint64(i)
	}
	return x
}

var sinkU64 uint64

func TestCPUProfileChargesHotFunctionToItsLayer(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		sinkU64 += spinHot(1 << 16)
	}
	pprof.StopCPUProfile()

	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	i, err := p.valueIndex("cpu/nanoseconds")
	if err != nil {
		t.Fatal(err)
	}
	funcs := p.byFunction(i)
	layers := byLayer(funcs)
	var total int64
	for _, v := range layers {
		total += v
	}
	if total == 0 {
		t.Skip("profile holds no samples")
	}
	// A test binary names this package by its import path, the
	// benchmark binary by "main"; both are the bench layer.
	hot := funcs["ensembleio/bench.spinHot"] + funcs["main.spinHot"]
	if bucket := layers["bench"]; hot < bucket*8/10 || bucket < total/2 {
		t.Fatalf("spinHot %d ns of bench's %d ns (total %d ns); want it to dominate: %v", hot, bucket, total, funcs)
	}
}

// allocHot allocates a known volume.
//
//go:noinline
func allocHot() [][]byte {
	var out [][]byte
	for i := 0; i < 64; i++ {
		out = append(out, make([]byte, 1<<20))
	}
	return out
}

func TestAllocProfileChargesAllocationsToTheirLayer(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	runtime.GC()
	before, err := allocProfile()
	if err != nil {
		t.Fatal(err)
	}
	kept := allocHot()
	runtime.GC()
	after, err := allocProfile()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	if err := foldInto(got, after, "alloc_space/bytes", 1); err != nil {
		t.Fatal(err)
	}
	if err := foldInto(got, before, "alloc_space/bytes", -1); err != nil {
		t.Fatal(err)
	}
	if want := int64(len(kept)) << 20; got["bench"] < want {
		t.Fatalf("bench bucket allocated %d bytes, want at least %d", got["bench"], want)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"ensembleio/internal/sim.(*Engine).Run":        "sim",
		"ensembleio/internal/ensemble/campaign.Run":    "campaign",
		"ensembleio/internal/runpool.Map[...].func1":   "runpool",
		"ensembleio/internal/flownet.(*Net).recompute": "flownet",
		"ensembleio.RunGCRM":                           "ensembleio",
		"main.measure":                                 "bench",
		"ensembleio/bench.measure":                     "bench",
		"runtime.mallocgc":                             "",
		"crypto/sha256.block":                          "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParseProfileRejectsDamagedInput(t *testing.T) {
	for _, in := range [][]byte{
		nil,
		[]byte("not gzip"),
		gz([]byte{0x0a, 0x7f}),             // sample_type claims 127 bytes, has none
		gz([]byte{0x12, 0x02, 0x08}),       // sample cut inside its location ids
		gz([]byte{0x08}),                   // varint key without a value
		gz([]byte{0x0a, 0x02, 0x08, 0x05}), // sample type names string 5 of none
	} {
		if _, err := parseProfile(in); err == nil {
			t.Errorf("parseProfile accepted damaged input % x", in)
		}
	}
}

func gz(b []byte) []byte {
	var buf bytes.Buffer
	w := gzip.NewWriter(&buf)
	_, _ = w.Write(b) // a bytes.Buffer write cannot fail
	_ = w.Close()
	return buf.Bytes()
}
