package cluster

import (
	"math"
	"testing"

	"ensembleio/internal/flownet"
	"ensembleio/internal/sim"
)

func TestEffectiveAggregateTakesOSTLimit(t *testing.T) {
	p := Franklin()
	p.AggregateMBps = 100000 // fabric far above OST capacity
	want := float64(p.OSTs) * p.OSTServiceMBps
	if got := p.EffectiveAggregateMBps(); got != want {
		t.Errorf("effective aggregate %v, want OST-limited %v", got, want)
	}
	p = Franklin()
	if got := p.EffectiveAggregateMBps(); got != p.AggregateMBps {
		t.Errorf("effective aggregate %v, want network-limited %v", got, p.AggregateMBps)
	}
}

func TestNodeForTaskBlockAssignment(t *testing.T) {
	eng := sim.NewEngine()
	p := Franklin()
	p.BackgroundMeanMBps = 0
	c := New(eng, p, 4, 1)
	cases := []struct{ rank, node int }{{0, 0}, {3, 0}, {4, 1}, {15, 3}}
	for _, tc := range cases {
		if got := c.NodeForTask(tc.rank).ID; got != tc.node {
			t.Errorf("rank %d -> node %d, want %d", tc.rank, got, tc.node)
		}
	}
}

func TestNodeForTaskOutOfRangePanics(t *testing.T) {
	eng := sim.NewEngine()
	p := Franklin()
	p.BackgroundMeanMBps = 0
	c := New(eng, p, 2, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for rank beyond cluster")
		}
	}()
	c.NodeForTask(8)
}

func TestMemoryPressure(t *testing.T) {
	eng := sim.NewEngine()
	p := Franklin()
	p.BackgroundMeanMBps = 0
	c := New(eng, p, 1, 1)
	n := c.Nodes[0]
	if n.MemoryPressure() != 0 {
		t.Errorf("fresh node pressure %v, want 0", n.MemoryPressure())
	}
	n.DirtyMB = p.DirtyLimitMB / 2
	if math.Abs(n.MemoryPressure()-0.5) > 1e-12 {
		t.Errorf("pressure %v, want 0.5", n.MemoryPressure())
	}
	n.DirtyMB = p.DirtyLimitMB * 2
	if n.MemoryPressure() != 2 {
		t.Errorf("pressure %v, want 2", n.MemoryPressure())
	}
	n.DirtyMB = p.DirtyLimitMB + 10
	if n.DirtyRoomMB() != 0 {
		t.Errorf("room %v, want 0 when over limit", n.DirtyRoomMB())
	}
}

func TestServiceNoiseDeterministicPerSeed(t *testing.T) {
	mk := func(seed int64) []float64 {
		eng := sim.NewEngine()
		p := Franklin()
		p.BackgroundMeanMBps = 0
		c := New(eng, p, 1, seed)
		out := make([]float64, 50)
		for i := range out {
			out[i] = c.ServiceNoise()
		}
		return out
	}
	a, b := mk(7), mk(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed gave different noise streams")
		}
	}
	cdiff := mk(8)
	same := 0
	for i := range a {
		if a[i] == cdiff[i] {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds coincide on %d/50 draws", same)
	}
}

func TestServiceNoiseCenteredNearOne(t *testing.T) {
	eng := sim.NewEngine()
	p := Franklin()
	p.BackgroundMeanMBps = 0
	p.StragglerProb = 0 // median test without tail
	c := New(eng, p, 1, 3)
	above := 0
	n := 10000
	for i := 0; i < n; i++ {
		if c.ServiceNoise() > 1 {
			above++
		}
	}
	frac := float64(above) / float64(n)
	if frac < 0.46 || frac > 0.54 {
		t.Errorf("fraction above 1 = %.3f, want ~0.5", frac)
	}
}

func TestBackgroundLoadConsumesBandwidthAndStops(t *testing.T) {
	eng := sim.NewEngine()
	p := Franklin()
	p.BackgroundMeanMBps = 8000 // half the fabric
	p.NodeLinkMBps = 0          // so the fabric, not the node link, binds
	c := New(eng, p, 1, 5)

	// A foreground transfer that would take 1 s alone should take
	// noticeably longer with a heavy background competitor.
	var dur sim.Duration
	eng.Spawn("fg", func(pr *sim.Task) {
		c.Nodes[0].Port.Transfer(pr, 16000, flownet.StreamOpts{}, func() {
			dur = pr.Now()
			c.StopBackground()
			pr.Exit()
		})
	})
	eng.Run()
	if dur < 1.05 {
		t.Errorf("foreground transfer %v, want slowed beyond 1.05s by background load", dur)
	}
	if dur > 10 {
		t.Errorf("foreground transfer %v, implausibly slow", dur)
	}
}

func TestJaguarDiffersFromFranklin(t *testing.T) {
	f, j := Franklin(), Jaguar()
	if !j.PatchStridedReadahead {
		t.Error("Jaguar profile must not exhibit the strided read-ahead pathology")
	}
	if f.PatchStridedReadahead {
		t.Error("Franklin profile must exhibit the bug by default")
	}
	if j.EffectiveAggregateMBps() <= f.EffectiveAggregateMBps() {
		t.Error("Jaguar should have higher aggregate bandwidth")
	}
	if j.OSTs <= f.OSTs {
		t.Error("Jaguar should have more OSTs")
	}
}

func TestProfileByName(t *testing.T) {
	cases := []struct {
		name    string
		want    Profile
		wantErr bool
	}{
		{name: "franklin", want: Franklin()},
		{name: "franklin-patched", want: FranklinPatched()},
		{name: "jaguar", want: Jaguar()},
		{name: "patched", wantErr: true},
		{name: "Franklin", wantErr: true},
		{name: "", wantErr: true},
	}
	for _, c := range cases {
		got, err := ProfileByName(c.name)
		if (err != nil) != c.wantErr {
			t.Errorf("ProfileByName(%q) err = %v, wantErr %v", c.name, err, c.wantErr)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("ProfileByName(%q) = %+v, want %+v", c.name, got, c.want)
		}
	}
	if p := FranklinPatched(); !p.PatchStridedReadahead || p.Name != "franklin" {
		t.Errorf("FranklinPatched = %+v, want Franklin with the strided read-ahead patch", p)
	}
}
