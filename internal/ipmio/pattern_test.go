package ipmio

import (
	"testing"
	"testing/quick"
)

func feed(pd *PatternDetector, rank, fd int, op Op, offsets []int64, size int64) {
	for _, off := range offsets {
		pd.Observe(Event{Rank: int32(rank), Op: op, FD: int32(fd), Offset: off, Bytes: size})
	}
}

func TestPatternSequential(t *testing.T) {
	pd := NewPatternDetector()
	offs := make([]int64, 10)
	for i := range offs {
		offs[i] = int64(i) * 1e6
	}
	feed(pd, 0, 3, OpRead, offs, 1e6)
	p, _ := pd.StreamPattern(0, 3, OpRead)
	if p != PatternSequential {
		t.Errorf("pattern = %v, want sequential", p)
	}
}

func TestPatternStridedWithDominantStride(t *testing.T) {
	pd := NewPatternDetector()
	offs := make([]int64, 8)
	for i := range offs {
		offs[i] = int64(i) * 301e6 // the MADbench stride
	}
	feed(pd, 2, 4, OpRead, offs, 300e6)
	p, stride := pd.StreamPattern(2, 4, OpRead)
	if p != PatternStrided {
		t.Fatalf("pattern = %v, want strided", p)
	}
	if stride != 301e6 {
		t.Errorf("stride = %d, want 301e6", stride)
	}
}

func TestPatternRandom(t *testing.T) {
	pd := NewPatternDetector()
	feed(pd, 0, 3, OpWrite, []int64{0, 700e6, 30e6, 400e6, 90e6, 650e6}, 1e6)
	p, _ := pd.StreamPattern(0, 3, OpWrite)
	if p != PatternRandom {
		t.Errorf("pattern = %v, want random", p)
	}
}

func TestPatternUnknownForShortStreams(t *testing.T) {
	pd := NewPatternDetector()
	feed(pd, 0, 3, OpRead, []int64{0, 10e6}, 1e6)
	if p, _ := pd.StreamPattern(0, 3, OpRead); p != PatternUnknown {
		t.Errorf("pattern after 2 accesses = %v, want unknown", p)
	}
	if p, _ := pd.StreamPattern(9, 9, OpRead); p != PatternUnknown {
		t.Errorf("pattern of unseen stream = %v, want unknown", p)
	}
}

func TestPatternStreamsIndependent(t *testing.T) {
	pd := NewPatternDetector()
	// Same fd number on different ranks; different ops on same fd.
	seq := []int64{0, 1e6, 2e6, 3e6, 4e6}
	str := []int64{0, 301e6, 602e6, 903e6, 1204e6}
	feed(pd, 0, 3, OpRead, seq, 1e6)
	feed(pd, 1, 3, OpRead, str, 1e6)
	feed(pd, 0, 3, OpWrite, str, 1e6)
	if p, _ := pd.StreamPattern(0, 3, OpRead); p != PatternSequential {
		t.Errorf("rank0 reads = %v, want sequential", p)
	}
	if p, _ := pd.StreamPattern(1, 3, OpRead); p != PatternStrided {
		t.Errorf("rank1 reads = %v, want strided", p)
	}
	if p, _ := pd.StreamPattern(0, 3, OpWrite); p != PatternStrided {
		t.Errorf("rank0 writes = %v, want strided", p)
	}
}

func TestPatternSummarize(t *testing.T) {
	pd := NewPatternDetector()
	for rank := 0; rank < 6; rank++ {
		offs := make([]int64, 8)
		for i := range offs {
			if rank < 4 {
				offs[i] = int64(i) * 301e6 // strided
			} else {
				offs[i] = int64(i) * 1e6 // sequential
			}
		}
		feed(pd, rank, 3, OpRead, offs, 1e6)
	}
	s := pd.Summarize(OpRead)
	if s.Streams != 6 || s.Strided != 4 || s.Sequential != 2 {
		t.Errorf("summary = %+v, want 6 streams, 4 strided, 2 sequential", s)
	}
	if s.DominantStride != 301e6 {
		t.Errorf("dominant stride %d, want 301e6", s.DominantStride)
	}
	if w := pd.Summarize(OpWrite); w.Streams != 0 {
		t.Errorf("write summary has %d streams, want 0", w.Streams)
	}
}

func TestPatternIgnoresUnsizedOps(t *testing.T) {
	pd := NewPatternDetector()
	pd.Observe(Event{Rank: 0, Op: OpSeek, FD: 3, Offset: 5e6})
	pd.Observe(Event{Rank: 0, Op: OpOpen, FD: 3})
	if s := pd.Summarize(OpRead); s.Streams != 0 {
		t.Error("unsized ops created streams")
	}
}

func TestCollectorPatternMode(t *testing.T) {
	c := NewCollector(PatternMode)
	for i := 0; i < 8; i++ {
		c.Record(Event{Rank: 0, Op: OpRead, FD: 3, Offset: int64(i) * 301e6, Bytes: 300e6})
	}
	if c.Patterns() == nil {
		t.Fatal("PatternMode collector has no detector")
	}
	if len(c.Events) != 0 {
		t.Error("PatternMode alone retained events")
	}
	p, stride := c.Patterns().StreamPattern(0, 3, OpRead)
	if p != PatternStrided || stride != 301e6 {
		t.Errorf("collector pattern = %v/%d, want strided/301e6", p, stride)
	}
	if NewCollector(TraceMode).Patterns() != nil {
		t.Error("TraceMode collector unexpectedly has a detector")
	}
}

// Property: the classifier never returns strided with a zero stride,
// and stream counts always sum to Streams.
func TestPatternSummaryConsistency(t *testing.T) {
	f := func(raw []uint16) bool {
		pd := NewPatternDetector()
		for i, r := range raw {
			pd.Observe(Event{
				Rank: int32(i % 3), Op: OpRead, FD: 3,
				Offset: int64(r) * 4096, Bytes: 4096,
			})
		}
		s := pd.Summarize(OpRead)
		if s.Sequential+s.Strided+s.Random+s.Unknown != s.Streams {
			return false
		}
		for rank := 0; rank < 3; rank++ {
			if p, stride := pd.StreamPattern(rank, 3, OpRead); p == PatternStrided && stride == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
