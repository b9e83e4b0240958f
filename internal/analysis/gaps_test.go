package analysis

import (
	"math"
	"testing"

	"ensembleio/internal/ipmio"
	"ensembleio/internal/sim"
)

func ev(rank int, start, dur float64) ipmio.Event {
	return ipmio.Event{Rank: int32(rank), Op: ipmio.OpWrite, Bytes: 1e6,
		Start: sim.Time(start), Dur: sim.Duration(dur)}
}

func TestGapsFindsIdleIntervals(t *testing.T) {
	events := []ipmio.Event{
		ev(0, 0, 1),
		ev(0, 5, 1), // gap [1,5]
		ev(0, 6.2, 1),
		ev(1, 0, 7), // no gap
	}
	gaps := Gaps(events, 2)
	if len(gaps) != 1 {
		t.Fatalf("%d gaps, want 1: %+v", len(gaps), gaps)
	}
	g := gaps[0]
	if g.Rank != 0 || g.Start != 1 || g.End != 5 || g.Dur() != 4 {
		t.Errorf("gap = %+v, want rank0 [1,5]", g)
	}
	// Smaller threshold reveals the 0.2s gap too... minGap 0.1:
	if got := len(Gaps(events, 0.1)); got != 2 {
		t.Errorf("minGap=0.1 found %d gaps, want 2", got)
	}
}

func TestRankActivitiesBusyUnion(t *testing.T) {
	events := []ipmio.Event{
		ev(0, 0, 2),
		ev(0, 1, 2), // overlaps: union [0,3] = 3
		ev(1, 10, 1),
	}
	acts := RankActivities(events)
	if len(acts) != 2 {
		t.Fatalf("%d activities, want 2", len(acts))
	}
	if acts[0].Rank != 0 || acts[0].Busy != 3 || acts[0].Events != 2 {
		t.Errorf("rank0 activity = %+v, want busy 3 from 2 events", acts[0])
	}
	if acts[1].Busy != 1 {
		t.Errorf("rank1 busy = %v, want 1", acts[1].Busy)
	}
}

func TestRankActivitiesExclusive(t *testing.T) {
	// ranks 0-3 busy [0,10]; rank 0 alone busy [10,40].
	events := []ipmio.Event{
		ev(0, 0, 10), ev(1, 0, 10), ev(2, 0, 10), ev(3, 0, 10),
		ev(0, 10, 30),
	}
	acts := RankActivities(events)
	for _, a := range acts {
		switch a.Rank {
		case 0:
			if a.Exclusive != 30 {
				t.Errorf("rank0 exclusive = %v, want 30", a.Exclusive)
			}
		default:
			if a.Exclusive != 0 {
				t.Errorf("rank%d exclusive = %v, want 0", a.Rank, a.Exclusive)
			}
		}
	}
}

func TestSerializerDetection(t *testing.T) {
	// The Fig-6g shape: bursts of parallel work, long rank-0 solos.
	var events []ipmio.Event
	tt := 0.0
	for phase := 0; phase < 3; phase++ {
		for rank := 0; rank < 8; rank++ {
			events = append(events, ev(rank, tt, 2))
		}
		tt += 2
		events = append(events, ev(0, tt, 10)) // serialized metadata
		tt += 10
	}
	rank, frac, ok := Serializer(events, 0.25)
	if !ok {
		t.Fatalf("serializer not detected (frac=%v)", frac)
	}
	if rank != 0 {
		t.Errorf("serializer rank %d, want 0", rank)
	}
	if frac < 0.5 { // 30 of 36 seconds are rank-0 solos
		t.Errorf("exclusive fraction %v, want > 0.5", frac)
	}
}

func TestSerializerAbsentInParallelWork(t *testing.T) {
	var events []ipmio.Event
	for rank := 0; rank < 8; rank++ {
		for i := 0; i < 5; i++ {
			events = append(events, ev(rank, float64(i)*2, 2))
		}
	}
	if _, frac, ok := Serializer(events, 0.25); ok {
		t.Errorf("parallel work flagged as serialized (frac=%v)", frac)
	}
}

func TestSerializerDegenerateInputs(t *testing.T) {
	if _, _, ok := Serializer(nil, 0.25); ok {
		t.Error("empty trace flagged")
	}
	if _, _, ok := Serializer([]ipmio.Event{ev(0, 0, 1)}, 0.25); ok {
		t.Error("single-rank trace flagged")
	}
}

func TestRankActivitiesHandlesSoloHandoff(t *testing.T) {
	// Rank 0 solo [0,5), rank 1 solo [5,9) with the handoff at t=5.
	events := []ipmio.Event{ev(0, 0, 5), ev(1, 5, 4)}
	acts := RankActivities(events)
	if acts[0].Exclusive != 5 || acts[1].Exclusive != 4 {
		t.Errorf("handoff exclusives = %v/%v, want 5/4", acts[0].Exclusive, acts[1].Exclusive)
	}
}

// TestRankActivitiesNegativeRanks: a negative rank, as a decoded trace
// may carry, is credited its exclusive time like any other.
func TestRankActivitiesNegativeRanks(t *testing.T) {
	acts := RankActivities([]ipmio.Event{ev(-3, 0, 1), ev(5, 2, 1.5)})
	if len(acts) != 2 || acts[0].Rank != -3 || acts[0].Exclusive != 1 || acts[1].Exclusive != 1.5 {
		t.Fatalf("activities %+v, want rank -3 exclusive 1 and rank 5 exclusive 1.5", acts)
	}
}

// TestRankActivitiesNaNTimesTerminate: a NaN start or duration, which
// never compares equal to itself, still ends its instant's group, so
// the sweep terminates and counts every event.
func TestRankActivitiesNaNTimesTerminate(t *testing.T) {
	nan := math.NaN()
	acts := RankActivities([]ipmio.Event{ev(0, 0, 1), ev(1, nan, 1), ev(1, 2, nan), ev(2, 0.5, 1)})
	if len(acts) != 3 || acts[0].Events != 1 || acts[1].Events != 2 || acts[2].Events != 1 {
		t.Fatalf("activities %+v, want 3 ranks holding 1, 2 and 1 events", acts)
	}
}
