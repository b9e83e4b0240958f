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

	p.path = s.FilePath()

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
	metaOp := p.h5Layout().MetaOpBytes() // page-padded when aligned
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

// Run executes the compiled program once on a machine of its own —
// a Session with one unnamed job — and returns its artifact.
func (p *Program) Run(cfg RunConfig) *Run {
	cores := cfg.Machine.CoresPerNode
	s := NewSession(SessionConfig{
		Machine:     cfg.Machine,
		Nodes:       (p.ranks + cores - 1) / cores,
		Seed:        cfg.Seed,
		Faults:      cfg.Faults,
		Telemetry:   cfg.Telemetry,
		StripeCount: p.spec.StripeCount,
	})
	j := s.AddJob(p, TenantJobConfig{Mode: cfg.Mode, Seed: cfg.Seed})
	s.Run()
	run := j.Finish()
	run.Telemetry, run.Spans = s.Fold()
	return run
}

// body prepares the program to run on job j and returns the per-rank
// interpreter's first step. Pre-launch setup happens here, in a
// deterministic order: the stage-one shipping groups on j's world,
// then the compute-imbalance draws from j's seed's dedicated stream,
// and the one h5lite layout every writer shares.
func (p *Program) body(j *Job) func(r *mpi.Rank, tr *ipmio.Tracer) {
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

	jr := &jobRun{p: p, j: j, factors: p.drawImbalance(j.seed)}
	if p.h5 {
		jr.layout = p.h5Layout()
	}

	return func(r *mpi.Rank, tr *ipmio.Tracer) {
		ex := &executor{jr: jr, r: r, tr: tr, fd: -1}
		ex.writer, ex.w = p.writerOf(r.ID)
		if groups != nil {
			ex.group = groups[r.ID/p.perWriter]
		}
		ex.stepFn = ex.step
		ex.ioDoneFn = ex.ioDone
		ex.run()
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

// jobRun is what every rank of one job's run shares: the program,
// the job, the compute-imbalance draws and the h5lite layout.
type jobRun struct {
	p       *Program
	j       *Job
	factors [][]float64
	layout  *h5lite.Layout
}

// executor is one rank's interpreter: its program counter and the
// state its ops share. It runs as a chain of continuations: run issues
// ops until one parks the rank, and that op's completion re-enters
// through step.
type executor struct {
	jr *jobRun
	r  *mpi.Rank
	tr *ipmio.Tracer

	w     int // writer index (when writer)
	group *mpi.Comm

	fd   int
	file *h5lite.File

	// The program counter: phase, its repetition, op, and the op's
	// next call (ops such as write with a count make several).
	pi, rep, oi, i int

	writer bool
	// issuing is set while run issues a call, so a call that completes
	// before it returns only sets completed, and run moves on without
	// deepening the stack.
	issuing, completed bool

	stepFn   func()       // ex.step, bound once
	ioDoneFn posixio.Done // ex.ioDone, bound once
}

// run issues the rank's calls in program order until one parks, or
// the program ends and the rank finishes.
func (ex *executor) run() {
	phases := ex.jr.p.phases
	for ex.pi < len(phases) {
		ph := &phases[ex.pi]
		if ex.oi < len(ph.ops) {
			ex.issuing, ex.completed = true, false
			issued := ex.exec(&ph.ops[ex.oi])
			ex.issuing = false
			switch {
			case issued && !ex.completed:
				return // parked: step resumes
			case issued:
				ex.i++
			default:
				ex.i = 0
				ex.oi++
			}
			continue
		}
		ex.oi = 0
		if ex.rep++; ex.rep == ph.repeat {
			ex.rep = 0
			ex.pi++
		}
	}
	ex.jr.j.rankDone(ex.r)
}

// step is the completion of every call the executor issues.
func (ex *executor) step() {
	if ex.issuing {
		ex.completed = true
		return
	}
	ex.i++
	ex.run()
}

// ioDone completes an I/O call. I/O errors panic: inside the
// simulation an I/O error is a workload bug, not an environmental
// condition.
func (ex *executor) ioDone(_ int64, err error) {
	if err != nil {
		panic(err)
	}
	ex.step()
}

// exec issues call ex.i of op for the rank and reports whether it
// issued one; false means the op has no calls left (or none at all).
func (ex *executor) exec(op *cop) bool {
	p, r, tr := ex.jr.p, ex.r, ex.tr
	single := ex.i == 0 // for ops that make at most one call
	switch op.kind {
	case kOpen:
		if !single {
			return false
		}
		if p.h5 {
			// Stage-one shippers never touch the file system.
			if !ex.writer {
				return false
			}
			ex.file = h5lite.NewFile(tr, ex.jr.layout, r.ID == 0)
			ex.file.Create(p.path, ex.ioDoneFn)
			return true
		}
		path := p.path
		if p.spec.FilePerProcess {
			path = fmt.Sprintf("%s.%05d", p.path, r.ID)
		}
		ex.fd = tr.Open(path, p.flags, ex.ioDoneFn)
	case kClose:
		if !single || p.h5 && !ex.writer {
			return false
		}
		if p.h5 {
			ex.file.Close(ex.ioDoneFn)
			return true
		}
		tr.Close(ex.fd, ex.ioDoneFn)
	case kBarrier:
		if !single {
			return false
		}
		r.Barrier(ex.stepFn)
	case kMark:
		// Phase boundaries are recorded once, from rank 0.
		if r.ID == 0 {
			ex.jr.j.col.Mark(op.marks[ex.rep], r.T.Now())
		}
		return false
	case kCompute:
		if !single {
			return false
		}
		r.T.Sleep(sim.Duration(op.seconds*ex.jr.factors[op.compute][r.ID]), ex.stepFn)
	case kSeek:
		if _, err := tr.Seek(ex.fd, op.off.at(r.ID, 0, ex.rep), posixio.SeekSet); err != nil {
			panic(err)
		}
		return false
	case kRead:
		if ex.i == op.count {
			return false
		}
		tr.Read(ex.fd, op.bytes, ex.ioDoneFn)
	case kWrite:
		if ex.i == op.count {
			return false
		}
		tr.Write(ex.fd, op.bytes, ex.ioDoneFn)
	case kPread:
		if ex.i == op.count {
			return false
		}
		tr.Pread(ex.fd, op.off.at(r.ID, ex.i, ex.rep), op.bytes, ex.ioDoneFn)
	case kPwrite:
		if ex.i == op.count {
			return false
		}
		tr.Pwrite(ex.fd, op.off.at(r.ID, ex.i, ex.rep), op.bytes, ex.ioDoneFn)
	case kRecords:
		// The writer's records: each of its perWriter tasks' records
		// of the dataset, task by task.
		n := p.perWriter * p.spec.Datasets[op.ds].RecordsPerTask
		if !ex.writer || ex.i == n {
			return false
		}
		ex.file.WriteRecord(op.ds, ex.w*n+ex.i, ex.ioDoneFn)
	case kMeta:
		if !single || !ex.writer {
			return false
		}
		ex.file.FlushMetadata(op.ds, ex.ioDoneFn)
	case kGather:
		// Stage one of collective buffering: ship this rank's records
		// for the variable to its aggregator. A no-op outside
		// two-stage mode, so the same phase list serves every rung of
		// the optimization ladder.
		if !single || ex.group == nil {
			return false
		}
		d := &p.spec.Datasets[op.ds]
		ex.group.Gather(r, d.RecordBytes*int64(d.RecordsPerTask), r.ID, ex.stepFn)
	}
	return true
}

// h5Layout is the file layout every writer of one job shares: each
// spec dataset, in spec order, sized for every task's records.
func (p *Program) h5Layout() *h5lite.Layout {
	s := p.spec
	specs := make([]h5lite.DatasetSpec, len(s.Datasets))
	for i, d := range s.Datasets {
		specs[i] = h5lite.DatasetSpec{
			Name:        d.Name,
			RecordBytes: d.RecordBytes,
			NRecords:    s.Tasks * d.RecordsPerTask,
			MetaOps:     d.MetaOps,
		}
	}
	return h5lite.NewLayout(h5lite.FileOpts{
		Alignment:         s.H5.AlignBytes,
		AggregateMetadata: s.H5.AggregateMetadata,
	}, specs)
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
