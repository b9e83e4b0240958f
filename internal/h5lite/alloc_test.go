package h5lite_test

import (
	"runtime"
	"strings"
	"testing"

	"ensembleio/internal/cluster"
	"ensembleio/internal/wldsl"
	"ensembleio/internal/workloads"
)

// h5liteAllocs returns the objects and bytes allocated so far by
// h5lite code itself (the first frame outside the runtime), from the
// heap profile as of the last completed GC.
func h5liteAllocs() (objects, bytes int64) {
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, _ = runtime.MemProfile(recs, true)
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if !strings.HasPrefix(f.Function, "runtime.") {
				if strings.HasPrefix(f.Function, "ensembleio/internal/h5lite.") {
					objects += r.AllocObjects
					bytes += r.AllocBytes
				}
				break
			}
			if !more {
				break
			}
		}
	}
	return objects, bytes
}

// TestWritersShareOneLayout runs the collective GCRM corpus spec with
// every allocation profiled: h5lite may allocate one File per writer
// and a constant amount per job (the layout, rank 0's metadata
// cursors), but nothing per writer per dataset. A per-rank copy of
// the dataset layout fails it.
func TestWritersShareOneLayout(t *testing.T) {
	spec, err := wldsl.Load("../../testdata/scenarios/workloads/gcrm-collective.json")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := workloads.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	writers := int64(spec.Collective.Aggregators)

	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	objs0, bytes0 := h5liteAllocs()
	runtime.MemProfileRate = 1
	prog.Run(workloads.RunConfig{Machine: cluster.Franklin(), Seed: 1})
	objs1, bytes1 := h5liteAllocs()
	objs, bytes := objs1-objs0, bytes1-bytes0

	t.Logf("h5lite: %d objects, %d B for %d writers x %d datasets", objs, bytes, writers, len(spec.Datasets))
	if limit := writers + 8; objs > limit {
		t.Errorf("h5lite allocated %d objects in one run, want <= %d (one File per writer plus the job's layout)", objs, limit)
	}
	if limit := writers*128 + 4096; bytes > limit {
		t.Errorf("h5lite allocated %d B in one run, want <= %d", bytes, limit)
	}
}
