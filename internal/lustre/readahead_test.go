package lustre

import (
	"testing"

	"ensembleio/internal/cluster"
	"ensembleio/internal/sim"
)

func TestStrideDetectionThirdAppearance(t *testing.T) {
	rs := NewReadState()
	size, stride := int64(1e6), int64(300e6)
	for i := 0; i < 8; i++ {
		rs.observe(int64(i)*stride, size)
		// Strides appear between reads: after read 4 the stride has
		// been seen 3 times and the enlarged window applies.
		wantActive := i >= 3
		if got := rs.StridedActive(); got != wantActive {
			t.Errorf("after read %d: StridedActive = %v, want %v", i+1, got, wantActive)
		}
	}
}

func TestSequentialReadsDoNotTriggerStride(t *testing.T) {
	rs := NewReadState()
	size := int64(1e6)
	for i := 0; i < 10; i++ {
		rs.observe(int64(i)*size, size) // perfectly sequential
	}
	if rs.StridedActive() {
		t.Error("sequential reads must not be classified as strided")
	}
}

func TestChangingStrideResetsDetection(t *testing.T) {
	rs := NewReadState()
	rs.observe(0, 1e6)
	rs.observe(100e6, 1e6)
	rs.observe(200e6, 1e6)
	rs.observe(350e6, 1e6) // different stride
	if rs.StridedActive() {
		t.Error("stride change must reset detection")
	}
}

// readSeq performs n strided reads on one client. If interleave is
// true, a sibling task keeps issuing writes so the node is write-busy
// during the reads (the MADbench W-phase condition).
func readSeq(t *testing.T, prof cluster.Profile, n int, interleave bool) []float64 {
	t.Helper()
	eng := sim.NewEngine()
	cl := cluster.New(eng, prof, 1, 7)
	fs := NewFS(cl)
	f := fs.Create("/scratch/matrices")
	f.Size = 1 << 62 // pretend the data exists
	c := fs.ClientFor(cl.Nodes[0])
	done := false
	rs := NewReadState()
	reads := make([]func(q *Req, k func()), n+1)
	for i := 0; i < n; i++ {
		reads[i] = func(q *Req, k func()) { c.Read(q, f, rs, int64(i)*301e6, 300e6, k) }
	}
	reads[n] = func(_ *Req, k func()) {
		done = true
		k()
	}
	rdurs := spawnCalls(eng, reads...)
	if interleave {
		eng.Spawn("writer", func(p *sim.Task) {
			q := &Req{T: p}
			off := int64(1 << 50)
			var write func()
			write = func() {
				if done {
					p.Exit()
					return
				}
				c.Write(q, f, off, 64e6, func() {
					off += 64e6
					p.Sleep(0.2, write)
				})
			}
			write()
		})
	}
	eng.Run()
	durs := make([]float64, n)
	for i := range durs {
		durs[i] = float64(rdurs[i])
	}
	return durs
}

func pathologyProfile() cluster.Profile {
	prof := quietProfile()
	prof.AggregateMBps = 4000
	prof.OSTs = 12
	prof.OSTServiceMBps = 350
	prof.NodeLinkMBps = 0
	prof.DirtyLimitMB = 0 // writes fully synchronous: node stays write-busy
	return prof
}

func TestPathologyHitsStridedReadsDuringWrites(t *testing.T) {
	durs := readSeq(t, pathologyProfile(), 8, true)
	// Reads 1-3: the strided window is not armed yet; fast even while
	// writes are in flight.
	for i := 0; i < 3; i++ {
		if durs[i] > 5 {
			t.Errorf("read %d took %.1fs, want fast before strided window arms", i+1, durs[i])
		}
	}
	// Reads 4-8: pathological. Exact durations depend on when the
	// interleaved write strikes within each read, so progression is
	// asserted on the growing severity scale rather than per read.
	for i := 3; i < 8; i++ {
		if durs[i] < 10 {
			t.Errorf("read %d took %.1fs, want pathological (>10s)", i+1, durs[i])
		}
	}
	early := maxOf(durs[3], durs[4])
	late := maxOf(durs[5], maxOf(durs[6], durs[7]))
	if late < 2*early {
		t.Errorf("late reads (max %.0fs) not clearly worse than early pathological reads (max %.0fs)", late, early)
	}
}

func TestNoPathologyWithoutInterleavedWrites(t *testing.T) {
	durs := readSeq(t, pathologyProfile(), 8, false)
	for i, d := range durs {
		if d > 5 {
			t.Errorf("read %d took %.1fs with no writes in flight, want fast", i+1, d)
		}
	}
}

func TestPatchRemovesPathology(t *testing.T) {
	prof := pathologyProfile()
	prof.PatchStridedReadahead = true
	durs := readSeq(t, prof, 8, true)
	for i, d := range durs {
		if d > 6 {
			t.Errorf("patched read %d took %.1fs, want fast", i+1, d)
		}
	}
}

func TestPathologyFloorBoundsSeverity(t *testing.T) {
	prof := pathologyProfile()
	prof.PathologySeverityGrow = 10 // explode severity quickly
	prof.PathologyFloorMBps = 2
	durs := readSeq(t, prof, 8, true)
	// Even at absurd severity the rate floor bounds each read at
	// ~300MB / 2MB/s = 150s (plus the clean prefix).
	for i, d := range durs {
		if d > 200 {
			t.Errorf("read %d took %.0fs, floor should bound it near 150s", i+1, d)
		}
	}
}

func TestWriteBusyReflectsQueue(t *testing.T) {
	prof := quietProfile()
	eng := sim.NewEngine()
	cl := cluster.New(eng, prof, 1, 1)
	fs := NewFS(cl)
	f := fs.Create("/x")
	c := fs.ClientFor(cl.Nodes[0])
	if c.WriteBusy() {
		t.Error("fresh client reports write-busy")
	}
	spawnCalls(eng, func(q *Req, k func()) { c.Write(q, f, 0, 400e6, k) })
	eng.Spawn("check", func(p *sim.Task) {
		p.Sleep(0.5, func() {
			if !c.WriteBusy() {
				t.Error("client not write-busy during a 400MB synchronous write")
			}
			p.Exit()
		})
	})
	eng.Run()
	if c.WriteBusy() {
		t.Error("client still write-busy after the run drained")
	}
}

func maxOf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
