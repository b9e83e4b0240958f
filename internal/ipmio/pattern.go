package ipmio

import (
	"fmt"
	"sort"
)

// This file implements the paper's stated future work (§VI): extending
// the IPM-I/O framework "to detect an application's I/O patterns; thus
// providing key information to the underlying file system". The
// detector runs online — like profile mode, it retains no trace — and
// classifies each (rank, fd) stream as sequential, strided, or random,
// exactly the categories the file system's read-ahead logic cares
// about.

// Pattern classifies an access stream.
type Pattern uint8

// Stream classifications.
const (
	PatternUnknown    Pattern = iota // fewer than two accesses observed
	PatternSequential                // each access begins where the last ended
	PatternStrided                   // constant non-zero gap between accesses
	PatternRandom                    // no stable structure
)

var patternNames = [...]string{"unknown", "sequential", "strided", "random"}

func (p Pattern) String() string {
	if int(p) < len(patternNames) {
		return patternNames[p]
	}
	return fmt.Sprintf("pattern(%d)", uint8(p))
}

type streamKey struct {
	rank, fd int
	op       Op
}

type streamState struct {
	n          int // accesses observed
	lastOffset int64
	lastEnd    int64
	lastStride int64

	sequential int
	strided    int
	random     int
	// dominant stride bookkeeping
	strideOf   int64
	strideHits int
}

// PatternDetector classifies access streams online from the event
// feed. The zero value is not usable; construct with
// NewPatternDetector.
type PatternDetector struct {
	streams map[streamKey]*streamState
}

// NewPatternDetector returns an empty detector.
func NewPatternDetector() *PatternDetector {
	return &PatternDetector{streams: make(map[streamKey]*streamState)}
}

// Observe folds in one event. Only sized reads and writes participate.
func (pd *PatternDetector) Observe(ev Event) {
	if ev.Bytes <= 0 || (ev.Op != OpRead && ev.Op != OpWrite) {
		return
	}
	k := streamKey{rank: int(ev.Rank), fd: int(ev.FD), op: ev.Op}
	st := pd.streams[k]
	if st == nil {
		st = &streamState{}
		pd.streams[k] = st
	}
	if st.n > 0 {
		switch {
		case ev.Offset == st.lastEnd:
			st.sequential++
		default:
			stride := ev.Offset - st.lastOffset
			if stride != 0 && stride == st.lastStride {
				st.strided++
				if stride == st.strideOf {
					st.strideHits++
				} else {
					st.strideOf = stride
					st.strideHits = 1
				}
			} else {
				st.random++
			}
			st.lastStride = stride
		}
	}
	st.n++
	st.lastOffset = ev.Offset
	st.lastEnd = ev.Offset + ev.Bytes
}

// StreamPattern classifies one stream and, for strided streams,
// returns the dominant stride in bytes.
func (pd *PatternDetector) StreamPattern(rank, fd int, op Op) (Pattern, int64) {
	st := pd.streams[streamKey{rank: rank, fd: fd, op: op}]
	if st == nil {
		return PatternUnknown, 0
	}
	return st.classify()
}

func (st *streamState) classify() (Pattern, int64) {
	moves := st.sequential + st.strided + st.random
	if moves < 2 {
		return PatternUnknown, 0
	}
	switch {
	case float64(st.sequential)/float64(moves) >= 0.7:
		return PatternSequential, 0
	case float64(st.strided)/float64(moves) >= 0.5:
		return PatternStrided, st.strideOf
	default:
		return PatternRandom, 0
	}
}

// Summary aggregates stream classifications for one op type.
type PatternSummary struct {
	Streams    int
	Sequential int
	Strided    int
	Random     int
	Unknown    int
	// DominantStride is the most common stride among strided streams
	// (0 if none).
	DominantStride int64
}

func (s PatternSummary) String() string {
	return fmt.Sprintf("%d streams: %d sequential, %d strided (stride %d), %d random, %d unknown",
		s.Streams, s.Sequential, s.Strided, s.DominantStride, s.Random, s.Unknown)
}

// Summarize classifies every observed stream of the given op.
func (pd *PatternDetector) Summarize(op Op) PatternSummary {
	out := PatternSummary{}
	strides := make(map[int64]int)
	for k, st := range pd.streams {
		if k.op != op {
			continue
		}
		out.Streams++
		p, stride := st.classify()
		switch p {
		case PatternSequential:
			out.Sequential++
		case PatternStrided:
			out.Strided++
			strides[stride]++
		case PatternRandom:
			out.Random++
		default:
			out.Unknown++
		}
	}
	// Pick the dominant stride over sorted keys so ties break toward
	// the smallest stride deterministically instead of by map order.
	strideKeys := make([]int64, 0, len(strides))
	for s := range strides {
		strideKeys = append(strideKeys, s)
	}
	sort.Slice(strideKeys, func(i, j int) bool { return strideKeys[i] < strideKeys[j] })
	best := 0
	for _, s := range strideKeys {
		if n := strides[s]; n > best {
			best, out.DominantStride = n, s
		}
	}
	return out
}
