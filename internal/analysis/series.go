package analysis

import (
	"strings"

	"ensembleio/internal/ipmio"
	"ensembleio/internal/sim"
)

// Series is a regularly sampled time series (e.g. aggregate MB/s).
type Series struct {
	T0     sim.Time
	Dt     sim.Duration
	Values []float64
}

// End returns the time at the end of the last bin.
func (s Series) End() sim.Time { return s.T0 + sim.Time(float64(s.Dt)*float64(len(s.Values))) }

// Peak returns the maximum value.
func (s Series) Peak() float64 {
	m := 0.0
	for _, v := range s.Values {
		if v > m {
			m = v
		}
	}
	return m
}

// Mean returns the average value over the series.
func (s Series) Mean() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.Values {
		sum += v
	}
	return sum / float64(len(s.Values))
}

// RateSeries computes the instantaneous aggregate data rate across
// all tasks (Figure 1b, 4b/e, 6b/e/h/k): each sized event's bytes are
// spread uniformly over its duration and accumulated into dt-wide
// bins; values are MB/s.
func RateSeries(events []ipmio.Event, filter func(ipmio.Event) bool, dt sim.Duration, end sim.Time) Series {
	if dt <= 0 {
		panic("analysis: RateSeries requires dt > 0")
	}
	n := int(float64(end)/float64(dt)) + 1
	vals := make([]float64, n)
	for _, ev := range events {
		if ev.Bytes <= 0 {
			continue
		}
		if filter != nil && !filter(ev) {
			continue
		}
		dur := float64(ev.Dur)
		if dur <= 0 {
			dur = float64(dt) / 100 // instantaneous: deposit in one bin
		}
		rate := float64(ev.Bytes) / 1e6 / dur // MB/s while active
		t0, t1 := float64(ev.Start), float64(ev.Start)+dur
		i0 := int(t0 / float64(dt))
		i1 := int(t1 / float64(dt))
		for i := i0; i <= i1 && i < n; i++ {
			if i < 0 {
				continue
			}
			binLo := float64(i) * float64(dt)
			binHi := binLo + float64(dt)
			overlap := minF(t1, binHi) - maxF(t0, binLo)
			if overlap > 0 {
				vals[i] += rate * overlap / float64(dt)
			}
		}
	}
	return Series{T0: 0, Dt: dt, Values: vals}
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// TraceDiagram renders the Figure 1a/4a-style trace raster as ASCII:
// one row per band of ranks, one column per time slice. Write
// activity renders 'W' (or 'w' when under half the band is writing),
// reads 'R'/'r', mixed 'M', idle '.'. The diagram is the event-level
// view the ensemble approach complements.
func TraceDiagram(events []ipmio.Event, nRanks, width, height int, end sim.Time) string {
	if width <= 0 || height <= 0 || nRanks <= 0 || end <= 0 {
		return ""
	}
	if height > nRanks {
		height = nRanks
	}
	ranksPerRow := (nRanks + height - 1) / height
	colDt := float64(end) / float64(width)

	// busy[row][col][0]=write fraction accumulator, [1]=read
	busy := make([][][2]float64, height)
	for i := range busy {
		busy[i] = make([][2]float64, width)
	}
	for _, ev := range events {
		if ev.Dur <= 0 || (ev.Op != ipmio.OpRead && ev.Op != ipmio.OpWrite) {
			continue
		}
		row := int(ev.Rank) / ranksPerRow
		if row >= height {
			row = height - 1
		}
		kind := 0
		if ev.Op == ipmio.OpRead {
			kind = 1
		}
		t0, t1 := float64(ev.Start), float64(ev.Start+ev.Dur)
		c0, c1 := int(t0/colDt), int(t1/colDt)
		for c := c0; c <= c1 && c < width; c++ {
			if c < 0 {
				continue
			}
			lo, hi := float64(c)*colDt, float64(c+1)*colDt
			overlap := minF(t1, hi) - maxF(t0, lo)
			if overlap > 0 {
				busy[row][c][kind] += overlap / (colDt * float64(ranksPerRow))
			}
		}
	}

	var b strings.Builder
	for r := 0; r < height; r++ {
		for c := 0; c < width; c++ {
			w, rd := busy[r][c][0], busy[r][c][1]
			switch {
			case w > 0.05 && rd > 0.05:
				b.WriteByte('M')
			case w >= 0.5:
				b.WriteByte('W')
			case w > 0.05:
				b.WriteByte('w')
			case rd >= 0.5:
				b.WriteByte('R')
			case rd > 0.05:
				b.WriteByte('r')
			default:
				b.WriteByte('.')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
