package mpi

import (
	"fmt"

	"ensembleio/internal/sim"
)

// Additional collectives beyond Barrier/Gather: reductions, allgather
// and scatter, with log-tree latency plus bandwidth cost models. These
// round out the runtime for workloads beyond the paper's three (e.g.
// aggregating statistics inside a simulated application).

// collState is the rendezvous scratch for one in-flight collective on
// a communicator. Collectives on one communicator must not interleave
// (as in MPI, where collective calls are ordered per communicator).
type collState struct {
	count  int
	vals   []interface{}
	result interface{}
	gen    int
	q      sim.WaitQueue
}

func (c *Comm) coll() *collState {
	if c.collSt == nil {
		c.collSt = &collState{vals: make([]interface{}, len(c.ranks))}
	}
	return c.collSt
}

// collKind is which part of a collective's combined result is each
// member's Result.
type collKind uint8

const (
	collAll  collKind = iota // the whole result
	collRoot                 // the whole result at comm rank 0, nil elsewhere
	collMine                 // element [comm rank] of the result slice
)

// collective deposits this rank's value and parks it until all members
// have arrived; combine runs once, on the last arrival, over the full
// slot array. Each member then takes its part of the result and pays
// the closing costs d1 and d2 before completing.
func (c *Comm) collective(r *Rank, value interface{}, combine func(vals []interface{}) interface{},
	pick collKind, d1, d2 sim.Duration, k func()) {
	me := c.CommRank(r)
	st := c.coll()
	r.begin(k)
	r.comm, r.gen = c, st.gen
	x := r.ext()
	x.pick, x.d1, x.d2 = pick, d1, d2
	st.vals[me] = value
	st.count++
	if st.count < len(c.ranks) {
		st.q.Wait(r.T, r.park(rankCollWait))
		return
	}
	st.result = combine(st.vals)
	st.count = 0
	st.gen++
	st.q.WakeAll()
	r.collOut()
}

// collOut takes the rank's part of the collective's result the moment
// it is released, then pays the closing costs.
func (r *Rank) collOut() {
	c, x := r.comm, r.x
	res := c.collSt.result
	switch x.pick {
	case collRoot:
		if c.CommRank(r) != 0 {
			res = nil
		}
	case collMine:
		res = res.([]interface{})[c.CommRank(r)]
	}
	x.val = res
	r.sleep2(x.d1, x.d2)
}

// ReduceOp combines two float64 contributions.
type ReduceOp func(a, b float64) float64

// Standard reduction operators.
var (
	OpSum ReduceOp = func(a, b float64) float64 { return a + b }
	OpMax ReduceOp = func(a, b float64) float64 {
		if a > b {
			return a
		}
		return b
	}
	OpMin ReduceOp = func(a, b float64) float64 {
		if a < b {
			return a
		}
		return b
	}
)

// Allreduce combines every member's value with op and makes the
// result (a float64) every member's Result. n is the per-member
// payload size used for the cost model.
func (c *Comm) Allreduce(r *Rank, n int64, value float64, op ReduceOp, k func()) {
	// Reduce + broadcast trees.
	c.collective(r, value, op.fold, collAll, 2*c.treeLatency(), c.linkTime(float64(n)), k)
}

// Reduce combines every member's value at the communicator root (comm
// rank 0): the result (a float64) is the root's Result, and nil is
// every other member's.
func (c *Comm) Reduce(r *Rank, n int64, value float64, op ReduceOp, k func()) {
	c.collective(r, value, op.fold, collRoot, c.treeLatency(), c.linkTime(float64(n)), k)
}

// fold combines a slot array of float64 contributions in comm-rank
// order.
func (op ReduceOp) fold(vals []interface{}) interface{} {
	acc := vals[0].(float64)
	for _, v := range vals[1:] {
		acc = op(acc, v.(float64))
	}
	return acc
}

// Allgather makes every member's payload, in comm-rank order, every
// member's Result ([]interface{}). n is the per-member payload size.
func (c *Comm) Allgather(r *Rank, n int64, payload interface{}, k func()) {
	// Each member ships n and receives (size-1)*n.
	total := float64(n) * float64(len(c.ranks)-1)
	c.collective(r, payload, func(vals []interface{}) interface{} {
		return append([]interface{}(nil), vals...)
	}, collAll, c.treeLatency(), c.linkTime(total), k)
}

// Scatter distributes the root's per-member slices: the root (comm
// rank 0) passes values (one per member, in comm-rank order) and every
// member's Result is its element. n is the per-member payload size.
func (c *Comm) Scatter(r *Rank, n int64, values []interface{}, k func()) {
	me := c.CommRank(r)
	if me == 0 && len(values) != len(c.ranks) {
		panic(fmt.Sprintf("mpi: Scatter root provided %d values for %d members", len(values), len(c.ranks)))
	}
	var in interface{}
	if me == 0 {
		in = values
	}
	c.collective(r, in, func(vals []interface{}) interface{} {
		return vals[0] // the root's slice
	}, collMine, c.treeLatency(), c.linkTime(float64(n)), k)
}

// linkTime is the serialization time of bytes over one link.
func (c *Comm) linkTime(bytes float64) sim.Duration {
	return sim.Duration(bytes / 1e6 / c.w.cfg.LinkMBps)
}
