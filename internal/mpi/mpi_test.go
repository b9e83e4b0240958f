package mpi

import (
	"fmt"
	"testing"

	"ensembleio/internal/cluster"
	"ensembleio/internal/sim"
)

func testWorld(t *testing.T, size int) (*sim.Engine, *World) {
	t.Helper()
	eng := sim.NewEngine()
	prof := cluster.Franklin()
	prof.BackgroundMeanMBps = 0
	nodes := (size + prof.CoresPerNode - 1) / prof.CoresPerNode
	cl := cluster.New(eng, prof, nodes, 1)
	return eng, NewWorld(eng, cl, size, Config{})
}

// script launches w with every rank running the steps body returns for
// it, in order, then exiting. Each step issues one call with the
// completion it is given, or calls it itself.
func script(w *World, body func(r *Rank) []func(k func())) {
	w.Launch(func(r *Rank) {
		steps := body(r)
		i := 0
		var next func()
		next = func() {
			if i == len(steps) {
				r.Exit()
				return
			}
			i++
			steps[i-1](next)
		}
		next()
	})
}

// sleep is a step that sleeps d.
func sleep(r *Rank, d sim.Duration) func(k func()) {
	return func(k func()) { r.T.Sleep(d, k) }
}

// then is a step that runs f and continues at once.
func then(f func()) func(k func()) {
	return func(k func()) {
		f()
		k()
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	eng, w := testWorld(t, 8)
	var releases []sim.Time
	script(w, func(r *Rank) []func(k func()) {
		return []func(k func()){
			sleep(r, sim.Time(r.ID)), // staggered arrivals 0..7s
			r.Barrier,
			then(func() { releases = append(releases, r.T.Now()) }),
		}
	})
	eng.Run()
	if len(releases) != 8 {
		t.Fatalf("%d ranks released, want 8", len(releases))
	}
	for _, ts := range releases {
		if ts < 7 || ts > 7.001 {
			t.Errorf("release at %v, want ~7s (last arrival)", ts)
		}
	}
}

func TestBarrierReusable(t *testing.T) {
	eng, w := testWorld(t, 4)
	count := 0
	script(w, func(r *Rank) []func(k func()) {
		var steps []func(k func())
		for i := 0; i < 5; i++ {
			steps = append(steps, sleep(r, sim.Time(r.ID)*0.1), r.Barrier)
		}
		return append(steps, then(func() { count++ }))
	})
	eng.Run()
	if count != 4 {
		t.Errorf("%d ranks completed 5 barriers, want 4", count)
	}
}

func TestSendRecvDeliversPayloadInOrder(t *testing.T) {
	eng, w := testWorld(t, 2)
	var got []int
	script(w, func(r *Rank) []func(k func()) {
		var steps []func(k func())
		for i := 0; i < 3; i++ {
			if r.ID == 0 {
				steps = append(steps, func(k func()) { r.Send(1, 5, 1000, i, k) })
			} else {
				steps = append(steps,
					func(k func()) { r.Recv(0, 5, k) },
					then(func() { got = append(got, r.Result().(int)) }))
			}
		}
		return steps
	})
	eng.Run()
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Errorf("received %v, want [0 1 2]", got)
	}
}

func TestRecvBlocksUntilSend(t *testing.T) {
	eng, w := testWorld(t, 2)
	var recvAt sim.Time
	script(w, func(r *Rank) []func(k func()) {
		if r.ID == 0 {
			return []func(k func()){sleep(r, 2), func(k func()) { r.Send(1, 1, 10, "x", k) }}
		}
		return []func(k func()){
			func(k func()) { r.Recv(0, 1, k) },
			then(func() { recvAt = r.T.Now() }),
		}
	})
	eng.Run()
	if recvAt < 2 {
		t.Errorf("recv completed at %v, want >= 2 (after send)", recvAt)
	}
}

func TestSendCostScalesWithBytes(t *testing.T) {
	eng, w := testWorld(t, 2)
	var sendDur sim.Duration
	script(w, func(r *Rank) []func(k func()) {
		if r.ID == 0 {
			return []func(k func()){
				func(k func()) { r.Send(1, 2, 1600e6, nil, k) }, // 1600 MB over a 1600 MB/s link ~ 1s
				then(func() { sendDur = r.T.Now() }),
			}
		}
		return []func(k func()){func(k func()) { r.Recv(0, 2, k) }}
	})
	eng.Run()
	if sendDur < 0.9 || sendDur > 1.1 {
		t.Errorf("1600MB send took %v, want ~1s", sendDur)
	}
}

func TestGatherCollectsInCommOrder(t *testing.T) {
	eng, w := testWorld(t, 8)
	comm := w.NewComm([]int{4, 5, 6, 7}) // root is world rank 4
	var got []interface{}
	script(w, func(r *Rank) []func(k func()) {
		if r.ID < 4 {
			return nil
		}
		return []func(k func()){
			func(k func()) { comm.Gather(r, 1000, r.ID*10, k) },
			then(func() {
				if comm.CommRank(r) == 0 {
					got = r.Result().([]interface{})
				} else if r.Result() != nil {
					t.Errorf("non-root got non-nil gather result")
				}
			}),
		}
	})
	eng.Run()
	if len(got) != 4 {
		t.Fatalf("gather result len %d, want 4", len(got))
	}
	for i, v := range got {
		if v.(int) != (i+4)*10 {
			t.Errorf("gather[%d] = %v, want %d", i, v, (i+4)*10)
		}
	}
}

// TestGatherRootReceivesEarlyContributions: contributions already
// queued when the root arrives are taken at once, in comm-rank order,
// and only the missing one parks the root.
func TestGatherRootReceivesEarlyContributions(t *testing.T) {
	eng, w := testWorld(t, 4)
	comm := w.NewComm([]int{0, 1, 2, 3})
	var got []interface{}
	script(w, func(r *Rank) []func(k func()) {
		switch r.ID {
		case 0:
			return []func(k func()){
				sleep(r, 1), // ranks 1 and 3 have sent by now; rank 2 has not
				func(k func()) { comm.Gather(r, 8, "r0", k) },
				then(func() { got = r.Result().([]interface{}) }),
			}
		case 2:
			return []func(k func()){sleep(r, 2), func(k func()) { comm.Gather(r, 8, "r2", k) }}
		}
		return []func(k func()){func(k func()) { comm.Gather(r, 8, fmt.Sprint("r", r.ID), k) }}
	})
	eng.Run()
	if fmt.Sprint(got) != "[r0 r1 r2 r3]" {
		t.Errorf("gathered %v, want [r0 r1 r2 r3]", got)
	}
}

func TestSubCommBarrierIndependent(t *testing.T) {
	eng, w := testWorld(t, 8)
	evens := w.NewComm([]int{0, 2, 4, 6})
	done := 0
	script(w, func(r *Rank) []func(k func()) {
		// Odd ranks never arrive; the even barrier must not hang.
		if r.ID%2 != 0 {
			return nil
		}
		return []func(k func()){
			func(k func()) { evens.Barrier(r, k) },
			then(func() { done++ }),
		}
	})
	eng.Run()
	if done != 4 {
		t.Errorf("%d even ranks passed the sub-barrier, want 4", done)
	}
}

func TestCommRankPanicsForNonMember(t *testing.T) {
	eng, w := testWorld(t, 4)
	comm := w.NewComm([]int{0, 1})
	script(w, func(r *Rank) []func(k func()) {
		if r.ID == 3 {
			func() {
				defer func() {
					if recover() == nil {
						t.Error("expected panic for non-member CommRank")
					}
				}()
				comm.CommRank(r)
			}()
		}
		return nil
	})
	eng.Run()
}

func TestWorldCommMembership(t *testing.T) {
	_, w := testWorld(t, 4)
	_, other := testWorld(t, 8)
	if got := w.world.CommRank(w.Rank(3)); got != 3 {
		t.Errorf("world comm rank of rank 3 = %d, want 3", got)
	}
	// Same ID, another world; an ID past this world's size.
	for _, r := range []*Rank{other.Rank(2), other.Rank(6)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rank %d of another world passed the world comm's membership check", r.ID)
				}
			}()
			w.world.CommRank(r)
		}()
	}
}

func TestPointToPointStateIsLazy(t *testing.T) {
	eng, w := testWorld(t, 4)
	script(w, func(r *Rank) []func(k func()) {
		var steps []func(k func())
		switch r.ID {
		case 0:
			steps = append(steps, func(k func()) { r.Send(1, 9, 100, nil, k) })
		case 1:
			steps = append(steps, func(k func()) { r.Recv(0, 9, k) })
		}
		return append(steps, r.Barrier)
	})
	eng.Run()
	if w.Rank(1).inbox == nil {
		t.Error("the receiving rank has no inbox")
	}
	for _, i := range []int{0, 2, 3} {
		if r := w.Rank(i); r.inbox != nil || r.waiting != nil {
			t.Errorf("rank %d never received but made its point-to-point maps", i)
		}
	}
}

func TestRankPlacement(t *testing.T) {
	_, w := testWorld(t, 8)
	if w.Rank(0).Node.ID != 0 || w.Rank(3).Node.ID != 0 || w.Rank(4).Node.ID != 1 {
		t.Errorf("block placement wrong: ranks 0,3 -> node %d,%d; rank 4 -> node %d",
			w.Rank(0).Node.ID, w.Rank(3).Node.ID, w.Rank(4).Node.ID)
	}
}

func TestAllreduce(t *testing.T) {
	eng, w := testWorld(t, 8)
	comm := w.NewComm([]int{0, 1, 2, 3, 4, 5, 6, 7})
	results := make([]float64, 8)
	script(w, func(r *Rank) []func(k func()) {
		return []func(k func()){
			func(k func()) { comm.Allreduce(r, 8, float64(r.ID), OpSum, k) },
			then(func() { results[r.ID] = r.Result().(float64) }),
		}
	})
	eng.Run()
	for i, v := range results {
		if v != 28 { // 0+1+...+7
			t.Errorf("rank %d allreduce = %v, want 28", i, v)
		}
	}
}

func TestReduceOnlyRootGetsResult(t *testing.T) {
	eng, w := testWorld(t, 4)
	comm := w.NewComm([]int{0, 1, 2, 3})
	var rootVal float64
	roots := 0
	script(w, func(r *Rank) []func(k func()) {
		return []func(k func()){
			func(k func()) { comm.Reduce(r, 8, float64(r.ID+1), OpMax, k) },
			then(func() {
				if v, ok := r.Result().(float64); ok {
					roots++
					rootVal = v
				}
			}),
		}
	})
	eng.Run()
	if roots != 1 {
		t.Fatalf("%d roots got a result, want 1", roots)
	}
	if rootVal != 4 {
		t.Errorf("max reduce = %v, want 4", rootVal)
	}
}

func TestAllgatherOrder(t *testing.T) {
	eng, w := testWorld(t, 4)
	comm := w.NewComm([]int{3, 2, 1, 0}) // reversed comm order
	var got []interface{}
	script(w, func(r *Rank) []func(k func()) {
		return []func(k func()){
			func(k func()) { comm.Allgather(r, 8, r.ID*100, k) },
			then(func() {
				if r.ID == 0 {
					got = r.Result().([]interface{})
				}
			}),
		}
	})
	eng.Run()
	want := []int{300, 200, 100, 0} // comm-rank order
	if len(got) != len(want) {
		t.Fatalf("allgather returned %d values, want %d", len(got), len(want))
	}
	for i, v := range got {
		if v.(int) != want[i] {
			t.Errorf("allgather[%d] = %v, want %d", i, v, want[i])
		}
	}
}

func TestScatterDistributes(t *testing.T) {
	eng, w := testWorld(t, 4)
	comm := w.NewComm([]int{0, 1, 2, 3})
	results := make([]int, 4)
	script(w, func(r *Rank) []func(k func()) {
		var vals []interface{}
		if r.ID == 0 {
			vals = []interface{}{10, 11, 12, 13}
		}
		return []func(k func()){
			func(k func()) { comm.Scatter(r, 8, vals, k) },
			then(func() { results[r.ID] = r.Result().(int) }),
		}
	})
	eng.Run()
	for i, v := range results {
		if v != 10+i {
			t.Errorf("rank %d scatter = %d, want %d", i, v, 10+i)
		}
	}
}

func TestCollectivesReusable(t *testing.T) {
	eng, w := testWorld(t, 4)
	comm := w.NewComm([]int{0, 1, 2, 3})
	sums := make([]float64, 4)
	script(w, func(r *Rank) []func(k func()) {
		var steps []func(k func())
		for round := 0; round < 5; round++ {
			steps = append(steps,
				func(k func()) { comm.Allreduce(r, 8, 1, OpSum, k) },
				then(func() { sums[r.ID] += r.Result().(float64) }))
		}
		return steps
	})
	eng.Run()
	for i, v := range sums {
		if v != 20 { // 5 rounds x sum(1x4)
			t.Errorf("rank %d accumulated %v, want 20", i, v)
		}
	}
}

func TestReduceOps(t *testing.T) {
	if OpSum(2, 3) != 5 || OpMax(2, 3) != 3 || OpMin(2, 3) != 2 {
		t.Error("reduce op definitions wrong")
	}
}

func TestBcastReleasesAll(t *testing.T) {
	eng, w := testWorld(t, 4)
	comm := w.NewComm([]int{0, 1, 2, 3})
	var done int
	script(w, func(r *Rank) []func(k func()) {
		return []func(k func()){
			sleep(r, sim.Time(r.ID)), // staggered arrival
			func(k func()) { comm.Bcast(r, 0, 1024, k) },
			then(func() {
				if r.T.Now() < 3 {
					t.Errorf("rank %d released at %v before last arrival", r.ID, r.T.Now())
				}
				done++
			}),
		}
	})
	eng.Run()
	if done != 4 {
		t.Errorf("%d ranks completed bcast, want 4", done)
	}
}

func TestGatherVolumeCostsRootTime(t *testing.T) {
	eng, w := testWorld(t, 4)
	comm := w.NewComm([]int{0, 1, 2, 3})
	var rootDur sim.Duration
	script(w, func(r *Rank) []func(k func()) {
		return []func(k func()){
			func(k func()) { comm.Gather(r, 1600e6, nil, k) }, // 1.6 GB per member
			then(func() {
				if comm.CommRank(r) == 0 {
					rootDur = r.T.Now()
				}
			}),
		}
	})
	eng.Run()
	// Root drains 3 x 1.6 GB at 1600 MB/s: >= 3 s.
	if rootDur < 3 {
		t.Errorf("root gather took %v, want >= 3s of incast drain", rootDur)
	}
}
