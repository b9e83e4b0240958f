package lustre

import (
	"runtime"
	"testing"

	"ensembleio/internal/cluster"
	"ensembleio/internal/sim"
)

// TestNewFSAllocatesLittlePerClient is the per-node memory budget of a
// mount: one client per node, each with its own forked RNG stream. A
// client that seeds a full math/rand register (4.9 KB) again, or any
// other per-node table, breaks the 1 KB budget.
func TestNewFSAllocatesLittlePerClient(t *testing.T) {
	const nodes = 256
	cl := cluster.New(sim.NewEngine(), cluster.Franklin(), nodes, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fs := NewFS(cl)
	runtime.ReadMemStats(&after)
	perClient := float64(after.TotalAlloc-before.TotalAlloc) / nodes
	t.Logf("NewFS: %.0f B per client over %d clients", perClient, len(fs.clients))
	if perClient > 1024 {
		t.Errorf("NewFS allocates %.0f B per client, budget 1024 B", perClient)
	}
}
