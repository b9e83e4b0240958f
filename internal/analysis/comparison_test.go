package analysis

import (
	"testing"

	"ensembleio/internal/ipmio"
	"ensembleio/internal/sim"
)

func syntheticEvents(seed int64, n int, mean float64) []ipmio.Event {
	g := sim.NewRNG(seed)
	out := make([]ipmio.Event, n)
	for i := range out {
		out[i] = ipmio.Event{
			Rank: int32(i % 32), Op: ipmio.OpWrite, Bytes: 1e6,
			Start: sim.Time(i), Dur: sim.Duration(g.Lognormal(0, 0.3) * mean),
		}
	}
	return out
}

func TestCompareEventsSameDistribution(t *testing.T) {
	a := syntheticEvents(1, 2000, 5)
	b := syntheticEvents(2, 2000, 5)
	c := CompareEvents(a, b, 0, 0)
	if !c.Reproducible {
		t.Errorf("same-distribution traces judged different: %+v", c.Ops)
	}
	if len(c.Ops) != 1 || c.Ops[0].Op != ipmio.OpWrite {
		t.Fatalf("ops compared: %+v", c.Ops)
	}
	if c.Ops[0].KS >= c.Ops[0].Threshold {
		t.Errorf("KS %v above threshold %v", c.Ops[0].KS, c.Ops[0].Threshold)
	}
}

func TestCompareEventsShiftedDistribution(t *testing.T) {
	a := syntheticEvents(1, 2000, 5)
	b := syntheticEvents(2, 2000, 8) // 60% slower
	c := CompareEvents(a, b, 0, 0)
	if c.Reproducible {
		t.Error("shifted traces judged reproducible")
	}
}

func TestCompareEventsSkipsSparseOps(t *testing.T) {
	a := syntheticEvents(1, 2000, 5)
	b := syntheticEvents(2, 2000, 5)
	// A handful of reads on one side only: must be skipped, not judged.
	a = append(a, ipmio.Event{Op: ipmio.OpRead, Bytes: 1e6, Dur: 1})
	c := CompareEvents(a, b, 0, 0)
	for _, oc := range c.Ops {
		if oc.Op == ipmio.OpRead {
			t.Error("sparse op compared")
		}
	}
}

func TestCompareEventsFixedThreshold(t *testing.T) {
	a := syntheticEvents(1, 100, 5)
	b := syntheticEvents(2, 100, 5)
	c := CompareEvents(a, b, 0.9999, 0) // absurdly lax: everything same
	if !c.Reproducible {
		t.Error("lax threshold still judged different")
	}
	c = CompareEvents(a, b, 1e-9, 0) // absurdly strict: everything differs
	if c.Reproducible {
		t.Error("strict threshold judged same")
	}
}

func TestKSCriticalValueShrinksWithN(t *testing.T) {
	small := KSCriticalValue(0.001, 100, 100)
	big := KSCriticalValue(0.001, 10000, 10000)
	if big >= small {
		t.Errorf("critical value %v at n=10000 not below %v at n=100", big, small)
	}
	if small < 0.1 || small > 0.5 {
		t.Errorf("critical value at n=100 = %v, implausible", small)
	}
}
