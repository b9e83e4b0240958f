// Package detflow is the project's interprocedural determinism
// dataflow analyzer. The syntax-level analyzers (simpurity, telwall,
// maporder, floateq) see one function at a time, so nondeterminism
// laundered through a helper call — a utility package that reads
// time.Now, a shared routine that lets map order leak into a slice —
// passes them silently. detflow closes that gap: it builds a
// repo-wide call graph over go/types, computes a bottom-up
// determinism summary per function (reads-wall-clock,
// uses-global-rand, scheduler-sensitive, spawns-goroutines,
// map-order-escapes, float-order-sensitive accumulation), and reports
// every call site in a determinism-critical package whose callee's
// summary carries a fact that package forbids — with the full call
// chain from the call site down to the original source.
//
// Division of labor with the per-package analyzers: a source used
// *directly* inside a critical package (time.Now in internal/sim) is
// simpurity/telwall/maporder's finding, not detflow's. detflow
// reports only laundered facts — those arriving through a call to a
// function that is itself outside the jurisdiction of the violated
// rule — so each leak is flagged exactly once, at the boundary where
// it enters the critical domain.
//
// A finding is suppressed like any other analyzer's, at the reported
// call site:
//
//	//lint:allow(detflow) runpool fans whole seeded runs; parallelism stays above the per-run sim layer
//
// Summaries are conservative in two documented ways: function
// *references* count as potential calls (a method value or callback
// handed onward may be invoked later), and facts inside a function
// literal are attributed to the enclosing function (the closure runs
// with the encloser's obligations). Dynamic dispatch through
// interfaces is not resolved.
package detflow

import (
	"go/types"
	"sort"
	"strings"
	"sync"

	"ensembleio/internal/lint"
)

// Analyzer is the whole-program determinism dataflow check,
// registered alongside the per-package suite by cmd/ensemblelint.
var Analyzer = &lint.Analyzer{
	Name: "detflow",
	Doc: `interprocedural determinism dataflow: summarize every function
bottom-up (wall clock, global math/rand, scheduler, goroutines, map
order, float accumulation order) and flag call sites in
determinism-critical packages whose callees launder a forbidden fact,
with the full source chain`,
	RunAll: run,
}

// fact is one bit of a function's determinism summary. The summary
// lattice is the powerset of these bits ordered by inclusion; the
// bottom-up transfer function is bitwise OR over callees plus the
// function's own direct facts, so the fixpoint is the least one.
type fact uint8

const (
	factWallClock fact = 1 << iota
	factGlobalRand
	factSched
	factGoroutine
	factMapOrder
	factFloatOrder

	numFacts = 6
)

// factLabels names each bit in diagnostics.
var factLabels = [numFacts]string{
	"a wall-clock read",
	"a global math/rand draw",
	"a scheduler-sensitive value",
	"a goroutine launch",
	"map-iteration-order dependence",
	"order-sensitive float accumulation over an unordered collection",
}

func (f fact) label() string {
	for i := 0; i < numFacts; i++ {
		if f&(1<<i) != 0 {
			return factLabels[i]
		}
	}
	return "nondeterminism"
}

// A domain is a determinism-critical region of the repo: packages
// whose outputs are pinned artifacts (simulation results, telemetry
// snapshots, trace encodings, report tables) and which therefore
// forbid a set of facts from reaching them.
type domain struct {
	name      string // rendered in messages: "simulator", ...
	forbidden fact
}

// simForbidden: the per-run simulation must be bit-reproducible for a
// seed at any GOMAXPROCS, so every fact is fatal there.
const simForbidden = factWallClock | factGlobalRand | factSched |
	factGoroutine | factMapOrder | factFloatOrder

// artifactForbidden: the telemetry/trace/HDF5 encoders may use
// goroutine-free host facilities, but their serialized bytes must be
// identical across repeats, so anything order- or clock-dependent is
// out.
const artifactForbidden = factWallClock | factGlobalRand |
	factMapOrder | factFloatOrder

// statsForbidden: the statistics and report layers define the
// figures; like the encoders they must be pure functions of their
// inputs.
const statsForbidden = factWallClock | factGlobalRand |
	factMapOrder | factFloatOrder

// domains maps import-path prefixes to their domain. Packages not
// listed (runpool, cliutil, the CLIs, examples) are host-side: they
// may observe the wall clock and spawn goroutines, which is exactly
// why calls INTO them from a critical package are the interesting
// frontier.
var domains = map[string]domain{
	"ensembleio/internal/sim":       {"simulator", simForbidden},
	"ensembleio/internal/mpi":       {"simulator", simForbidden},
	"ensembleio/internal/lustre":    {"simulator", simForbidden},
	"ensembleio/internal/posixio":   {"simulator", simForbidden},
	"ensembleio/internal/ipmio":     {"simulator", simForbidden},
	"ensembleio/internal/workloads": {"simulator", simForbidden},
	"ensembleio/internal/flownet":   {"simulator", simForbidden},
	"ensembleio/internal/cluster":   {"simulator", simForbidden},
	"ensembleio/internal/wldsl":     {"simulator", simForbidden},
	"ensembleio/internal/tenancy":   {"simulator", simForbidden},

	"ensembleio/internal/telemetry": {"artifact-encoding", artifactForbidden},
	"ensembleio/internal/tracefmt":  {"artifact-encoding", artifactForbidden},
	"ensembleio/internal/h5lite":    {"artifact-encoding", artifactForbidden},

	"ensembleio/internal/ensemble": {"statistics", statsForbidden},
	"ensembleio/internal/analysis": {"statistics", statsForbidden},
	"ensembleio/internal/report":   {"statistics", statsForbidden},
	"ensembleio":                   {"statistics", statsForbidden},
}

// domainDirectives lets golden testdata packages opt into a domain
// without living under the real import paths: a file comment
// `//detflow:domain sim` (or artifact / stats / none) overrides the
// path lookup.
var domainDirectives = map[string]domain{
	"sim":      {"simulator", simForbidden},
	"artifact": {"artifact-encoding", artifactForbidden},
	"stats":    {"statistics", statsForbidden},
	"none":     {"", 0},
}

// domainOf resolves a package's domain: an explicit //detflow:domain
// directive wins, then the longest matching import-path prefix.
func domainOf(pkg *lint.Package) domain {
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//detflow:domain ")
				if !ok {
					continue
				}
				if d, ok := domainDirectives[strings.TrimSpace(rest)]; ok {
					return d
				}
			}
		}
	}
	if d, ok := domains[pkg.Path]; ok {
		return d
	}
	// Longest-prefix match for subpackages, over a sorted prefix list
	// so resolution is deterministic. The bare module path matches
	// exactly only — it must not sweep cmd/, examples/, and the
	// host-side packages into the statistics domain.
	for _, prefix := range domainPrefixes() {
		if strings.HasPrefix(pkg.Path, prefix+"/") {
			return domains[prefix]
		}
	}
	return domain{}
}

// domainPrefixes returns the subpackage-matchable domain prefixes,
// longest first (ties broken lexically), computed once.
var domainPrefixes = sync.OnceValue(func() []string {
	var out []string
	for prefix := range domains {
		if prefix != "ensembleio" {
			out = append(out, prefix)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) > len(out[j])
		}
		return out[i] < out[j]
	})
	return out
})

// intrinsicFact classifies a function outside the loaded packages: a
// standard-library entry point whose behavior is a nondeterminism
// source. The tables are shared with simpurity/telwall so the
// syntax-level and dataflow views agree on what a source is.
func intrinsicFact(fn *types.Func) (fact, string) {
	pkg := fn.Pkg()
	if pkg == nil || fn.Signature().Recv() != nil {
		return 0, ""
	}
	name := fn.Name()
	switch pkg.Path() {
	case "time":
		if lint.WallClockFuncs[name] {
			return factWallClock, "time." + name + " reads the wall clock"
		}
	case "math/rand", "math/rand/v2":
		if !lint.SeededRandCtors[name] {
			return factGlobalRand, "math/rand." + name + " draws from the global generator"
		}
	case "runtime":
		if lint.SchedulerFuncs[name] {
			return factSched, "runtime." + name + " depends on the Go scheduler"
		}
	case "iter":
		if lint.CoroutineFuncs[name] {
			return factGoroutine, "iter." + name + " runs its sequence as a coroutine on a goroutine of its own"
		}
	}
	return 0, ""
}

func run(pkgs []*lint.Package) []lint.Diagnostic {
	g := buildGraph(pkgs)
	g.propagate()
	return g.report()
}
