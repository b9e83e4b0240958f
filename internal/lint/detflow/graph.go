package detflow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"ensembleio/internal/lint"
)

// node is one function (or method) from the loaded packages, with its
// determinism summary and outgoing call edges.
type node struct {
	key  string // stable identity (types.Func.FullName, see nodeKey)
	name string // short display name, e.g. "runpool.RunJ"
	pkg  *lint.Package
	pos  token.Position
	dom  domain

	direct  fact              // facts from this function's own body
	facts   fact              // fixpoint: direct | facts of callees
	origins [numFacts]*srcRef // direct origin per fact bit
	edges   []edge            // in source order
	depth   [numFacts]int     // hops to the nearest direct origin
}

// edge is one call (or function reference) from a node to another
// loaded function.
type edge struct {
	posn   token.Position
	callee *node
}

// srcRef is the syntactic origin of a direct fact.
type srcRef struct {
	posn token.Position
	desc string
}

type graph struct {
	nodes []*node
	index map[string]*node
}

// nodeKey is the cross-package-stable identity of a function. Object
// identity does not survive the source/export-data boundary (package
// A's view of B.F is an importer-created object, not the one from
// type-checking B), so the fully qualified name is the join key.
// Generic instances collapse onto their origin declaration. Multiple
// init functions share a name, so their position disambiguates.
func nodeKey(fn *types.Func, posn token.Position) string {
	fn = fn.Origin()
	if fn.Name() == "init" && fn.Signature().Recv() == nil {
		return fmt.Sprintf("%s#%s:%d", fn.FullName(), posn.Filename, posn.Line)
	}
	return fn.FullName()
}

// shortName compresses a FullName for diagnostics:
// "ensembleio/internal/runpool.RunJ" -> "runpool.RunJ".
func shortName(fn *types.Func) string {
	s := fn.Origin().FullName()
	s = strings.ReplaceAll(s, "ensembleio/internal/", "")
	return strings.ReplaceAll(s, "ensembleio/", "")
}

// buildGraph creates one node per function declaration in the loaded
// packages, then walks every body to collect direct facts and call
// edges. Function references (method values, callbacks) count as
// edges, and facts inside function literals are attributed to the
// enclosing declaration.
func buildGraph(pkgs []*lint.Package) *graph {
	g := &graph{index: make(map[string]*node)}

	type declWork struct {
		n    *node
		decl *ast.FuncDecl
	}
	var work []declWork

	for _, pkg := range pkgs {
		dom := domainOf(pkg)
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				decl, ok := d.(*ast.FuncDecl)
				if !ok || decl.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[decl.Name].(*types.Func)
				if !ok {
					continue
				}
				posn := pkg.Fset.Position(decl.Pos())
				n := &node{
					key:  nodeKey(fn, posn),
					name: shortName(fn),
					pkg:  pkg,
					pos:  posn,
					dom:  dom,
				}
				for i := range n.depth {
					n.depth[i] = -1 // unreached
				}
				g.index[n.key] = n
				g.nodes = append(g.nodes, n)
				work = append(work, declWork{n, decl})
			}
		}
	}

	for _, w := range work {
		g.scanDecl(w.n, w.decl)
	}

	sort.Slice(g.nodes, func(i, j int) bool {
		a, b := g.nodes[i], g.nodes[j]
		if a.pos.Filename != b.pos.Filename {
			return a.pos.Filename < b.pos.Filename
		}
		return a.pos.Line < b.pos.Line
	})
	return g
}

// addDirect records a direct fact with its first (source-order)
// origin.
func (n *node) addDirect(bit fact, posn token.Position, desc string) {
	n.direct |= bit
	i := bitIndex(bit)
	if n.origins[i] == nil {
		n.origins[i] = &srcRef{posn: posn, desc: desc}
	}
}

func bitIndex(bit fact) int {
	for i := 0; i < numFacts; i++ {
		if bit == 1<<i {
			return i
		}
	}
	return 0
}

// scanDecl collects the direct facts and outgoing edges of one
// function declaration, descending into nested function literals.
func (g *graph) scanDecl(n *node, decl *ast.FuncDecl) {
	info := n.pkg.Info
	fset := n.pkg.Fset

	// Map-order facts come from the same scan core the maporder
	// analyzer reports from, so the two views agree by construction.
	scanBody := func(body *ast.BlockStmt) {
		for _, f := range lint.MapOrderScan(info, body) {
			bit := factMapOrder
			if f.FloatAccum {
				bit = factFloatOrder
			}
			n.addDirect(bit, fset.Position(f.Pos), f.Message)
		}
	}
	scanBody(decl.Body)
	ast.Inspect(decl.Body, func(x ast.Node) bool {
		if lit, ok := x.(*ast.FuncLit); ok {
			scanBody(lit.Body)
		}
		return true
	})

	ast.Inspect(decl.Body, func(x ast.Node) bool {
		switch v := x.(type) {
		case *ast.GoStmt:
			n.addDirect(factGoroutine, fset.Position(v.Pos()), "launches a goroutine (go statement)")
		case *ast.Ident:
			obj := info.Uses[v]
			switch o := obj.(type) {
			case *types.Func:
				posn := fset.Position(v.Pos())
				if callee, ok := g.index[nodeKey(o, posn)]; ok {
					n.edges = append(n.edges, edge{posn: posn, callee: callee})
					return true
				}
				if bit, desc := intrinsicFact(o); bit != 0 {
					n.addDirect(bit, posn, desc)
				}
			case *types.TypeName:
				// sync.Pool recycles in scheduler order, and sync.Map's
				// internals are contention-dependent; any use of either
				// type is the fact. (Simulator caches key on plain
				// slices with deterministic eviction instead.)
				if o.Pkg() != nil && o.Pkg().Path() == "sync" {
					switch o.Name() {
					case "Pool":
						n.addDirect(factSched, fset.Position(v.Pos()), "sync.Pool reuse order depends on the Go scheduler")
					case "Map":
						n.addDirect(factSched, fset.Position(v.Pos()), "sync.Map behavior is contention- and scheduler-dependent")
					}
				}
			}
		}
		return true
	})
	n.facts = n.direct
}

// propagate folds callee summaries into callers until the fixpoint:
// facts(f) = direct(f) | union of facts(g) over every edge f->g.
// Recursion (cycles) converges because the lattice is a finite
// powerset and the transfer function is monotone.
func (g *graph) propagate() {
	for changed := true; changed; {
		changed = false
		for _, n := range g.nodes {
			for _, e := range n.edges {
				if add := e.callee.facts &^ n.facts; add != 0 {
					n.facts |= add
					changed = true
				}
			}
		}
	}

	// Depth of each (function, fact): hops to the nearest direct
	// origin, Bellman-Ford style. Chains are reconstructed by walking
	// strictly decreasing depths, which also makes them cycle-safe.
	for _, n := range g.nodes {
		for i := 0; i < numFacts; i++ {
			if n.direct&(1<<i) != 0 {
				n.depth[i] = 0
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.nodes {
			for _, e := range n.edges {
				for i := 0; i < numFacts; i++ {
					d := e.callee.depth[i]
					if d < 0 {
						continue
					}
					if n.depth[i] < 0 || n.depth[i] > d+1 {
						n.depth[i] = d + 1
						changed = true
					}
				}
			}
		}
	}
}
