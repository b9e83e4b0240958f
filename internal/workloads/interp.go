package workloads

import (
	"fmt"

	"ensembleio/internal/cluster"
	"ensembleio/internal/faults"
	"ensembleio/internal/h5lite"
	"ensembleio/internal/ipmio"
	"ensembleio/internal/mpi"
	"ensembleio/internal/posixio"
	"ensembleio/internal/sim"
)

// computeSeedSalt decorrelates the compute-imbalance stream from every
// other consumer of the run seed (the cluster's background injector,
// the fault scenario, ...).
const computeSeedSalt = 0x57ee1d51

// opKind is the compiled operation discriminator.
type opKind uint8

const (
	kOpen opKind = iota
	kClose
	kBarrier
	kMark
	kCompute
	kSeek
	kRead
	kWrite
	kPread
	kPwrite
	kRecords
	kMeta
	kGather
)

var kindOf = map[string]opKind{
	"open": kOpen, "close": kClose, "barrier": kBarrier, "mark": kMark,
	"compute": kCompute, "seek": kSeek, "read": kRead, "write": kWrite,
	"pread": kPread, "pwrite": kPwrite, "write-records": kRecords,
	"metadata": kMeta, "gather": kGather,
}

// cop is one compiled op. Loop bounds, offsets, dataset indices, and
// expanded mark labels are all resolved here so the per-rank
// interpreter does no parsing, no formatting, and no map lookups.
type cop struct {
	kind  opKind
	bytes int64
	count int
	off   Offset
	ds    int      // dataset index (kRecords/kMeta/kGather)
	marks []string // kMark: label per phase repetition
	// kCompute: mean seconds and the index of this op's per-rank
	// imbalance row.
	seconds float64
	sigma   float64
	compute int
}

// cphase is one compiled phase: its op list runs repeat times.
type cphase struct {
	repeat int
	ops    []cop
}

// Program is a compiled spec, ready to run any number of times.
type Program struct {
	spec   *Spec
	path   string
	flags  int // posix open flags
	h5     bool
	phases []cphase

	// Rank geometry. In posix mode every task is a rank and a writer.
	// In h5 collective mode writers own perWriter tasks each, and with
	// two-stage buffering the non-writer ranks exist solely to ship
	// records to their aggregator.
	ranks     int
	writers   int
	perWriter int
	twoStage  bool

	nCompute int   // number of compute ops (imbalance rows to draw)
	events   int   // trace events per run (Collector.Reserve floor)
	total    int64 // logical data bytes (Run.TotalBytes)
}

// Compile validates the spec and resolves it into a Program.
func Compile(s *Spec) (*Program, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	p := &Program{spec: s, h5: s.H5 != nil}

	p.path = s.Path
	if p.path == "" {
		p.path = "/scratch/wl.dat"
		if p.h5 {
			p.path = "/scratch/wl.h5"
		}
	}

	p.ranks, p.writers, p.perWriter = s.Tasks, s.Tasks, 1
	if c := s.Collective; c != nil {
		p.writers = c.Aggregators
		p.perWriter = s.Tasks / c.Aggregators
		p.twoStage = c.TwoStage
		p.ranks = p.writers
		if c.TwoStage {
			p.ranks = s.Tasks
		}
	}

	// Readers need a read-capable descriptor; pure writers open
	// write-only, as IOR does.
	p.flags = posixio.OCreat | posixio.OWronly
	for _, ph := range s.Phases {
		for _, op := range ph.Ops {
			if op.Op == "read" || op.Op == "pread" {
				p.flags = posixio.OCreat | posixio.ORdwr
			}
		}
	}

	dsIndex := make(map[string]int, len(s.Datasets))
	for i, d := range s.Datasets {
		dsIndex[d.Name] = i
	}

	for pi := range s.Phases {
		ph := &s.Phases[pi]
		repeat := ph.Repeat
		if repeat == 0 {
			repeat = 1
		}
		cp := cphase{repeat: repeat}
		if ph.Name != "" {
			cp.ops = append(cp.ops, cop{kind: kMark, marks: expandMarks(ph.Name, repeat)})
		}
		for oi := range ph.Ops {
			op := &ph.Ops[oi]
			c := cop{kind: kindOf[op.Op], bytes: op.Bytes, ds: -1}
			c.count = op.Count
			if c.count == 0 {
				c.count = 1
			}
			if op.Offset != nil {
				c.off = *op.Offset
			}
			switch c.kind {
			case kMark:
				c.marks = expandMarks(op.Name, repeat)
			case kCompute:
				c.seconds, c.sigma = op.Seconds, op.Sigma
				c.compute = p.nCompute
				p.nCompute++
			case kRecords, kMeta, kGather:
				c.ds = dsIndex[op.Dataset]
			}
			cp.ops = append(cp.ops, c)
		}
		p.phases = append(p.phases, cp)
	}
	// Accounting runs after every phase is compiled: the aggregated-
	// metadata estimate at a close op needs the whole program's flush
	// list.
	for i := range p.phases {
		p.account(&p.phases[i])
	}
	if p.events > maxEvents {
		return nil, fmt.Errorf("wldsl: %s: spec implies ~%d trace events, beyond %d", s.Name, p.events, maxEvents)
	}
	return p, nil
}

// expandMarks pre-formats a mark label for every repetition.
func expandMarks(name string, repeat int) []string {
	marks := make([]string, repeat)
	for rep := range marks {
		if _, hasVerb := validMark(name); hasVerb {
			marks[rep] = fmt.Sprintf(name, rep)
		} else {
			marks[rep] = name
		}
	}
	return marks
}

// account folds one compiled phase into the program's trace-event and
// logical-byte totals. Event counts are a close floor (aggregated-
// metadata close writes are estimated), byte totals are exact and
// follow the Run.TotalBytes convention: sized data ops count
// their requested bytes, record writes count logical record bytes
// (padding excluded), metadata and gather traffic count nothing.
func (p *Program) account(cp *cphase) {
	s := p.spec
	repeat := cp.repeat
	for i := range cp.ops {
		op := &cp.ops[i]
		switch op.kind {
		case kOpen:
			p.events += p.ranksTouchingFile()
			if p.h5 {
				p.events++ // rank 0's superblock write
			}
		case kClose:
			p.events += p.ranksTouchingFile()
			if p.h5 && s.H5.AggregateMetadata {
				p.events += p.aggregatedMetaWrites()
			}
		case kSeek:
			p.events += p.ranks * repeat
		case kRead, kPread:
			p.events += p.ranks * op.count * repeat
			p.total += int64(p.ranks) * int64(op.count) * op.bytes * int64(repeat)
		case kWrite, kPwrite:
			p.events += p.ranks * op.count * repeat
			p.total += int64(p.ranks) * int64(op.count) * op.bytes * int64(repeat)
		case kRecords:
			d := &s.Datasets[op.ds]
			recs := s.Tasks * d.RecordsPerTask
			p.events += recs * repeat
			p.total += int64(recs) * d.RecordBytes * int64(repeat)
		case kMeta:
			if !s.H5.AggregateMetadata {
				p.events += s.Datasets[op.ds].MetaOps * repeat
			}
		}
	}
}

// ranksTouchingFile is how many ranks hold a descriptor: all of them
// in posix mode, only the writers in h5 mode.
func (p *Program) ranksTouchingFile() int {
	if p.h5 {
		return p.writers
	}
	return p.ranks
}

// aggregatedMetaWrites estimates the 1 MB close-time writes of
// aggregated-metadata mode (the whole run's metadata, all flushes).
func (p *Program) aggregatedMetaWrites() int {
	opts := h5lite.FileOpts{Alignment: p.spec.H5.AlignBytes}
	// Mirror h5lite's option defaulting to get the effective per-op
	// size (page-padded when aligned).
	metaOp := int64(2048)
	if opts.Alignment > 0 {
		const page = 4096
		metaOp = (metaOp + page - 1) / page * page
	}
	var pending int64
	for _, cp := range p.phases {
		for _, op := range cp.ops {
			if op.kind == kMeta {
				pending += int64(p.spec.Datasets[op.ds].MetaOps) * metaOp * int64(cp.repeat)
			}
		}
	}
	const chunk = 1e6
	return int((pending + chunk - 1) / chunk)
}

// Ranks is the MPI world size the program launches.
func (p *Program) Ranks() int { return p.ranks }

// Spec returns the compiled spec (read-only: mutating it does not
// recompile).
func (p *Program) Spec() *Spec { return p.spec }

// Events is the compiled trace-event estimate (a Reserve floor).
func (p *Program) Events() int { return p.events }

// TotalBytes is the program's logical data volume per run.
func (p *Program) TotalBytes() int64 { return p.total }

// RunConfig carries the runtime knobs a spec deliberately does not:
// which machine, which seed, which degradation scenario, what to
// collect.
type RunConfig struct {
	Machine cluster.Profile
	Seed    int64
	// Mode selects trace and/or profile collection (default
	// ipmio.TraceMode).
	Mode ipmio.Mode
	// Faults, when non-nil, is injected into the machine before the
	// run (see internal/faults).
	Faults *faults.Scenario
	// Telemetry enables the run's deterministic metric/span sink.
	Telemetry bool
}

// Run executes the compiled program once on a machine of its own and
// returns its artifact.
func (p *Program) Run(cfg RunConfig) *Run {
	if cfg.Mode == 0 {
		cfg.Mode = ipmio.TraceMode
	}
	j := newJob(cfg.Machine, p.ranks, cfg.Seed, cfg.Mode, cfg.Telemetry)
	j.fs.DefaultStripeCount = p.spec.StripeCount
	j.plat.applyFaults(cfg.Faults)
	j.col.Reserve(p.events)
	j.launch(p.Body(&Job{j: j}, cfg.Seed))
	return j.finish(&Run{
		Name:       p.spec.Name,
		Tasks:      p.spec.Tasks,
		Collector:  j.col,
		Wall:       j.wall,
		TotalBytes: p.total,
	})
}

// Body prepares the program to run on job J — the solo job Run
// builds, or a tenant of a shared-platform session (internal/tenancy)
// — and returns the per-rank interpreter body. Pre-launch setup
// happens here, in a deterministic order: the stage-one shipping
// groups on J's world, then the compute-imbalance draws from the
// seed's dedicated stream (a solo baseline passing the same seed
// reproduces the same compute times).
func (p *Program) Body(J *Job, seed int64) func(r *mpi.Rank, tr *ipmio.Tracer) {
	j := J.j
	// Stage-one shipping groups: aggregator g's group is the perWriter
	// consecutive ranks starting at g*perWriter, created pre-launch in
	// writer order.
	var groups []*mpi.Comm
	if p.twoStage {
		for g := 0; g < p.writers; g++ {
			members := make([]int, p.perWriter)
			for i := range members {
				members[i] = g*p.perWriter + i
			}
			groups = append(groups, j.w.NewComm(members))
		}
	}

	factors := p.drawImbalance(seed)

	return func(r *mpi.Rank, tr *ipmio.Tracer) {
		ex := executor{p: p, j: j, r: r, tr: tr, fd: -1, factors: factors}
		ex.writer, ex.w = p.writerOf(r.ID)
		if groups != nil {
			ex.group = groups[r.ID/p.perWriter]
		}
		for pi := range p.phases {
			ph := &p.phases[pi]
			for rep := 0; rep < ph.repeat; rep++ {
				for oi := range ph.ops {
					ex.exec(&ph.ops[oi], rep)
				}
			}
		}
	}
}

// writerOf maps a world rank to its writer role. Without two-stage
// buffering every rank is a writer (of perWriter tasks); with it,
// writer g is world rank g*perWriter and the rest only ship.
func (p *Program) writerOf(rank int) (isWriter bool, w int) {
	if !p.twoStage {
		return true, rank
	}
	if rank%p.perWriter == 0 {
		return true, rank / p.perWriter
	}
	return false, -1
}

// drawImbalance pre-draws every compute op's per-rank lognormal
// imbalance factor from a dedicated seeded stream, in (op, rank)
// order — a pure function of the seed and the program.
func (p *Program) drawImbalance(seed int64) [][]float64 {
	if p.nCompute == 0 {
		return nil
	}
	rng := sim.NewRNG(seed ^ computeSeedSalt)
	factors := make([][]float64, p.nCompute)
	ci := 0
	for _, cp := range p.phases {
		for _, op := range cp.ops {
			if op.kind != kCompute {
				continue
			}
			row := make([]float64, p.ranks)
			for rank := range row {
				row[rank] = rng.Lognormal(0, op.sigma)
			}
			factors[ci] = row
			ci++
		}
	}
	return factors
}

// executor is one rank's interpreter state.
type executor struct {
	p       *Program
	j       *job
	r       *mpi.Rank
	tr      *ipmio.Tracer
	factors [][]float64

	writer bool
	w      int
	group  *mpi.Comm

	fd       int
	file     *h5lite.File
	datasets []*h5lite.Dataset
}

// exec runs one compiled op for the rank. I/O errors panic: inside
// the simulation an I/O error is a workload bug, not an environmental
// condition.
func (ex *executor) exec(op *cop, rep int) {
	p, r, tr := ex.p, ex.r, ex.tr
	switch op.kind {
	case kOpen:
		if p.h5 {
			ex.h5Open()
			return
		}
		path := p.path
		if p.spec.FilePerProcess {
			path = fmt.Sprintf("%s.%05d", p.path, r.ID)
		}
		fd, err := tr.Open(r.P, path, p.flags)
		if err != nil {
			panic(err)
		}
		ex.fd = fd
	case kClose:
		if p.h5 {
			if ex.writer {
				if err := ex.file.Close(r.P); err != nil {
					panic(err)
				}
			}
			return
		}
		if err := tr.Close(r.P, ex.fd); err != nil {
			panic(err)
		}
	case kBarrier:
		r.Barrier()
	case kMark:
		ex.j.mark(r, op.marks[rep])
	case kCompute:
		r.P.Sleep(sim.Duration(op.seconds * ex.factors[op.compute][r.ID]))
	case kSeek:
		if _, err := tr.Seek(r.P, ex.fd, op.off.at(r.ID, 0, rep), posixio.SeekSet); err != nil {
			panic(err)
		}
	case kRead:
		for i := 0; i < op.count; i++ {
			if _, err := tr.Read(r.P, ex.fd, op.bytes); err != nil {
				panic(err)
			}
		}
	case kWrite:
		for i := 0; i < op.count; i++ {
			if _, err := tr.Write(r.P, ex.fd, op.bytes); err != nil {
				panic(err)
			}
		}
	case kPread:
		for i := 0; i < op.count; i++ {
			if _, err := tr.Pread(r.P, ex.fd, op.off.at(r.ID, i, rep), op.bytes); err != nil {
				panic(err)
			}
		}
	case kPwrite:
		for i := 0; i < op.count; i++ {
			if _, err := tr.Pwrite(r.P, ex.fd, op.off.at(r.ID, i, rep), op.bytes); err != nil {
				panic(err)
			}
		}
	case kRecords:
		if !ex.writer {
			return
		}
		ds := ex.datasets[op.ds]
		rpt := p.spec.Datasets[op.ds].RecordsPerTask
		for tsk := ex.w * p.perWriter; tsk < (ex.w+1)*p.perWriter; tsk++ {
			for rec := 0; rec < rpt; rec++ {
				if err := ds.WriteRecord(r.P, tsk*rpt+rec); err != nil {
					panic(err)
				}
			}
		}
	case kMeta:
		if !ex.writer {
			return
		}
		if err := ex.datasets[op.ds].FlushMetadata(r.P); err != nil {
			panic(err)
		}
	case kGather:
		// Stage one of collective buffering: ship this rank's records
		// for the variable to its aggregator. A no-op outside
		// two-stage mode, so the same phase list serves every rung of
		// the optimization ladder.
		if ex.group != nil {
			d := &p.spec.Datasets[op.ds]
			ex.group.Gather(r, d.RecordBytes*int64(d.RecordsPerTask), r.ID)
		}
	}
}

// h5Open creates the file and declares every dataset, on writer ranks
// only (stage-one shippers never touch the file system).
func (ex *executor) h5Open() {
	p, r := ex.p, ex.r
	if !ex.writer {
		return
	}
	f, err := h5lite.Create(r.P, ex.tr, p.path, h5lite.FileOpts{
		Alignment:         p.spec.H5.AlignBytes,
		AggregateMetadata: p.spec.H5.AggregateMetadata,
		MetadataWriter:    r.ID == 0,
	})
	if err != nil {
		panic(err)
	}
	ex.file = f
	for _, d := range p.spec.Datasets {
		ex.datasets = append(ex.datasets,
			f.CreateDataset(d.Name, d.RecordBytes, p.spec.Tasks*d.RecordsPerTask, d.MetaOps))
	}
}

// at evaluates the offset expression.
func (o *Offset) at(rank, iter, rep int) int64 {
	return o.Base + o.PerRank*int64(rank) + o.PerIter*int64(iter) + o.PerPhase*int64(rep)
}

// mustRunSpec compiles and runs a spec built from a typed workload
// config. Builders hand out valid specs for valid configs, so a
// compile error means the config itself is out of range, and it
// panics like every other invalid-config check in this package.
func mustRunSpec(s *Spec, cfg RunConfig) *Run {
	p, err := Compile(s)
	if err != nil {
		panic(err)
	}
	return p.Run(cfg)
}
