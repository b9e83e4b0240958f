package wldsl

import (
	"fmt"

	"ensembleio/internal/sim"
	"ensembleio/internal/workloads"
)

// genSeedSalt decorrelates the generator's stream from the run seeds
// the generated specs are later executed under.
const genSeedSalt = 0x9e3d5c1

// Generate returns a pseudo-random valid workload spec, drawn from
// the scenario families the checked-in corpus covers: N-to-1 shared-
// file writes, N-to-N file-per-process writes, bursty checkpoint
// cycles, mixed write/read-back phases, collective-buffered h5
// dumps, and adversarial tiny-transfer floods. The same seed always
// yields the same spec, and every generated spec Validates, Compiles,
// and runs in well under a second — they exist to be pushed through
// the determinism suite in bulk (see TestGeneratedSpecsDeterministic).
//
// Reads are only ever generated against extents a preceding phase
// wrote, so a generated workload can never fault on missing data.
func Generate(seed int64) *workloads.Spec {
	rng := sim.NewRNG(seed ^ genSeedSalt)
	return families[rng.Intn(len(families))](seed, rng)
}

// families are Generate's scenario families, in the order its first
// draw picks them.
var families = [...]func(seed int64, rng *sim.RNG) *workloads.Spec{
	genShared, genFPP, genCheckpoint, genMixed, genH5, genAdversarial,
}

// Families is the number of generator families GenerateFamily draws
// from.
const Families = len(families)

// GenerateFamily returns a seeded spec from one family directly:
// family f modulo Families, in Generate's order (shared, file per
// process, checkpoint, mixed, h5, adversarial). Like Generate, the
// same arguments always yield the same valid spec.
func GenerateFamily(f int, seed int64) *workloads.Spec {
	f %= Families
	if f < 0 {
		f += Families
	}
	return families[f](seed, sim.NewRNG(seed^genSeedSalt))
}

// GenerateAdversarial returns a seeded spec from the adversarial
// family directly: many ranks issuing tiny transfers that straddle the
// platforms' small-I/O threshold (64 KiB), the access shape the
// paper's IPM traces flag as pathological. Useful as a co-tenant when
// stress-testing interference attribution — a flood of small strided
// writes from a wide communicator is the canonical noisy neighbor.
func GenerateAdversarial(seed int64) *workloads.Spec {
	return GenerateFamily(Families-1, seed)
}

// geometry shared by the posix families.
func genGeom(rng *sim.RNG) (tasks int, transfer int64, k, reps int) {
	tasks = 2 << rng.Intn(3)              // 2, 4, 8
	transfer = int64(1+rng.Intn(4)) * 2e6 // 2-8 MB
	k = 1 + rng.Intn(4)                   // transfers per phase
	reps = 1 + rng.Intn(3)                // phase repetitions
	return
}

func genShared(seed int64, rng *sim.RNG) *workloads.Spec {
	tasks, transfer, k, reps := genGeom(rng)
	block := transfer * int64(k)
	return &workloads.Spec{
		Name:  fmt.Sprintf("gen-shared-%d", seed),
		Tasks: tasks,
		Phases: []workloads.Phase{
			{Ops: []workloads.Op{{Op: "open"}, {Op: "barrier"}}},
			{Name: "write-phase-%d", Repeat: reps, Ops: []workloads.Op{
				{Op: "pwrite", Bytes: transfer, Count: k,
					Offset: &workloads.Offset{PerRank: block, PerIter: transfer}},
				{Op: "barrier"},
			}},
			{Ops: []workloads.Op{{Op: "close"}}},
		},
	}
}

func genFPP(seed int64, rng *sim.RNG) *workloads.Spec {
	tasks, transfer, k, reps := genGeom(rng)
	return &workloads.Spec{
		Name:           fmt.Sprintf("gen-fpp-%d", seed),
		Tasks:          tasks,
		FilePerProcess: true,
		StripeCount:    1 + rng.Intn(2),
		Phases: []workloads.Phase{
			{Ops: []workloads.Op{{Op: "open"}, {Op: "barrier"}}},
			{Name: "write-phase-%d", Repeat: reps, Ops: []workloads.Op{
				{Op: "pwrite", Bytes: transfer, Count: k,
					Offset: &workloads.Offset{PerIter: transfer}},
				{Op: "barrier"},
			}},
			{Ops: []workloads.Op{{Op: "close"}}},
		},
	}
}

func genCheckpoint(seed int64, rng *sim.RNG) *workloads.Spec {
	tasks, transfer, k, steps := genGeom(rng)
	state := transfer * int64(k)
	return &workloads.Spec{
		Name:  fmt.Sprintf("gen-checkpoint-%d", seed),
		Tasks: tasks,
		Phases: []workloads.Phase{
			{Ops: []workloads.Op{{Op: "open"}, {Op: "barrier"}}},
			{Repeat: steps + 1, Ops: []workloads.Op{
				{Op: "compute", Seconds: 1 + 4*rng.Float64(), Sigma: 0.05},
				{Op: "barrier"},
				{Op: "mark", Name: "checkpoint-%d"},
				{Op: "pwrite", Bytes: transfer, Count: k,
					Offset: &workloads.Offset{PerRank: state, PerIter: transfer}},
				{Op: "barrier"},
			}},
			{Ops: []workloads.Op{{Op: "close"}}},
		},
	}
}

func genMixed(seed int64, rng *sim.RNG) *workloads.Spec {
	tasks, transfer, k, _ := genGeom(rng)
	block := transfer * int64(k)
	// Read back at a (possibly) different granularity that still
	// tiles the written block exactly.
	rk := k * (1 + rng.Intn(2))
	rt := block / int64(rk)
	return &workloads.Spec{
		Name:  fmt.Sprintf("gen-mixed-%d", seed),
		Tasks: tasks,
		Phases: []workloads.Phase{
			{Ops: []workloads.Op{{Op: "open"}, {Op: "barrier"}}},
			{Name: "write-phase", Ops: []workloads.Op{
				{Op: "pwrite", Bytes: transfer, Count: k,
					Offset: &workloads.Offset{PerRank: block, PerIter: transfer}},
				{Op: "barrier"},
			}},
			{Name: "read-phase", Ops: []workloads.Op{
				{Op: "pread", Bytes: rt, Count: rk,
					Offset: &workloads.Offset{PerRank: block, PerIter: rt}},
				{Op: "barrier"},
			}},
			{Ops: []workloads.Op{{Op: "close"}}},
		},
	}
}

// genAdversarial emits the tiny-transfer/high-rank-count family:
// 32-64 ranks, per-op sizes drawn from 4 KiB to 256 KiB — a spread
// that deliberately straddles the 64 KiB SmallIOBytes threshold, so
// some generated specs ride the metadata-class path and some sit just
// above it. Op counts stay modest; the pathology is width and
// granularity, not volume.
func genAdversarial(seed int64, rng *sim.RNG) *workloads.Spec {
	tasks := 32 << rng.Intn(2)              // 32, 64
	transfer := int64(4<<10) << rng.Intn(7) // 4K .. 256K
	k := 4 + rng.Intn(5)                    // 4-8 tiny transfers per phase
	reps := 1 + rng.Intn(2)                 // 1-2 phase repetitions
	block := transfer * int64(k)
	return &workloads.Spec{
		Name:  fmt.Sprintf("gen-adversarial-%d", seed),
		Tasks: tasks,
		Phases: []workloads.Phase{
			{Ops: []workloads.Op{{Op: "open"}, {Op: "barrier"}}},
			{Name: "flood-phase-%d", Repeat: reps, Ops: []workloads.Op{
				{Op: "pwrite", Bytes: transfer, Count: k,
					Offset: &workloads.Offset{PerRank: block, PerIter: transfer, PerPhase: block * int64(tasks)}},
				{Op: "barrier"},
			}},
			{Ops: []workloads.Op{{Op: "close"}}},
		},
	}
}

func genH5(seed int64, rng *sim.RNG) *workloads.Spec {
	tasks := 8 << rng.Intn(2) // 8, 16
	h5 := &workloads.H5{}
	if rng.Bernoulli(0.5) {
		h5.AlignBytes = 1e6
	}
	if rng.Bernoulli(0.3) {
		h5.AggregateMetadata = true
	}
	var coll *workloads.Collective
	if rng.Bernoulli(0.7) {
		coll = &workloads.Collective{
			Aggregators: tasks / (2 << rng.Intn(2)), // tasks/2 or tasks/4
			TwoStage:    rng.Bernoulli(0.5),
		}
	}
	nds := 1 + rng.Intn(2)
	spec := &workloads.Spec{
		Name:       fmt.Sprintf("gen-h5-%d", seed),
		Tasks:      tasks,
		H5:         h5,
		Collective: coll,
		Phases:     []workloads.Phase{{Ops: []workloads.Op{{Op: "open"}, {Op: "barrier"}}}},
	}
	for v := 0; v < nds; v++ {
		name := fmt.Sprintf("var_%d", v)
		spec.Datasets = append(spec.Datasets, workloads.Dataset{
			Name:           name,
			RecordBytes:    int64(1+rng.Intn(4)) * 4e5,
			RecordsPerTask: 1 + rng.Intn(3),
			MetaOps:        4 + rng.Intn(13),
		})
		spec.Phases = append(spec.Phases, workloads.Phase{
			Name: fmt.Sprintf("var-%d", v),
			Ops: []workloads.Op{
				{Op: "gather", Dataset: name},
				{Op: "write-records", Dataset: name},
				{Op: "metadata", Dataset: name},
				{Op: "barrier"},
			},
		})
	}
	spec.Phases = append(spec.Phases, workloads.Phase{Name: "close", Ops: []workloads.Op{{Op: "close"}}})
	return spec
}
