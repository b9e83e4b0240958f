package detflow

import (
	"strings"
	"testing"

	"ensembleio/internal/lint"
)

// testdataPatterns loads the whole golden corpus in one go/list call:
// two out-of-domain helper packages (the laundering chain) and two
// domain-scoped sink packages with different forbidden sets.
var testdataPatterns = []string{
	"./testdata/src/hclock",
	"./testdata/src/helpers",
	"./testdata/src/detsim",
	"./testdata/src/detstats",
	"./testdata/src/detspec",
}

// TestDetflowGolden compares findings against the `// want` comments:
// multi-hop taint, cross-package propagation, recursion, method
// values, closures, per-domain forbidden sets, and //lint:allow
// suppression.
func TestDetflowGolden(t *testing.T) {
	lint.RunAnalyzerTest(t, Analyzer, testdataPatterns...)
}

func loadTestdata(t *testing.T) []*lint.Package {
	t.Helper()
	pkgs, err := lint.Load(".", testdataPatterns...)
	if err != nil {
		t.Fatalf("loading testdata: %v", err)
	}
	return pkgs
}

// findDiag returns the first raw finding whose file contains fileFrag
// and whose message contains msgFrag.
func findDiag(t *testing.T, diags []lint.Diagnostic, fileFrag, msgFrag string) lint.Diagnostic {
	t.Helper()
	for _, d := range diags {
		if strings.Contains(d.Pos.Filename, fileFrag) && strings.Contains(d.Message, msgFrag) {
			return d
		}
	}
	t.Fatalf("no finding in %q matching %q; got %d findings", fileFrag, msgFrag, len(diags))
	return lint.Diagnostic{}
}

// TestChainCrossPackage pins the full call path of the four-hop chain:
// the detsim call site -> Level1 -> level2 -> level3 -> hclock.Read,
// ending at the syntactic source (time.Now). The chain must cross the
// helpers/hclock package boundary and terminate at a source note.
func TestChainCrossPackage(t *testing.T) {
	diags := Analyzer.RunAll(loadTestdata(t))
	d := findDiag(t, diags, "detsim", "helpers.Level1 launders a wall-clock read")

	if len(d.Chain) != 4 {
		t.Fatalf("chain has %d steps, want 4:\n%s", len(d.Chain), d)
	}
	steps := []string{
		"helpers.Level1 calls",
		"helpers.level2 calls",
		"helpers.level3 calls",
		"hclock.Read: time.Now reads the wall clock",
	}
	for i, wantFrag := range steps {
		if !strings.Contains(d.Chain[i].Note, wantFrag) {
			t.Errorf("chain step %d = %q, want it to contain %q", i, d.Chain[i].Note, wantFrag)
		}
	}
	// The chain must actually descend into the second helper package.
	if !strings.Contains(d.Chain[3].Pos.Filename, "hclock") {
		t.Errorf("chain source resolved in %s, want the hclock package", d.Chain[3].Pos.Filename)
	}
}

// TestChainRecursion proves chain reconstruction terminates through a
// mutually recursive cycle and still lands on the source.
func TestChainRecursion(t *testing.T) {
	diags := Analyzer.RunAll(loadTestdata(t))
	d := findDiag(t, diags, "detsim", "helpers.Even launders a wall-clock read")

	if len(d.Chain) != 2 {
		t.Fatalf("chain has %d steps, want 2 (Even -> Odd -> source):\n%s", len(d.Chain), d)
	}
	last := d.Chain[len(d.Chain)-1].Note
	if !strings.Contains(last, "time.Now reads the wall clock") {
		t.Errorf("chain ends at %q, want the time.Now source", last)
	}
}

// TestDomainDifferences pins that the forbidden sets are per-domain:
// the goroutine fan-out helper and the coroutine helper are findings in
// detsim and clean in detstats.
func TestDomainDifferences(t *testing.T) {
	diags := Analyzer.RunAll(loadTestdata(t))
	var simGo, statsGo int
	for _, d := range diags {
		if !strings.Contains(d.Message, "goroutine launch") {
			continue
		}
		switch {
		case strings.Contains(d.Pos.Filename, "detsim"):
			simGo++
		case strings.Contains(d.Pos.Filename, "detstats"):
			statsGo++
		}
	}
	if simGo != 2 || statsGo != 0 {
		t.Errorf("goroutine findings: detsim=%d detstats=%d, want 2 and 0", simGo, statsGo)
	}
}

// TestNoFindingsInHelpers pins the laundered-facts-only rule: the
// helper packages carry every fact, but having no domain they get no
// findings — the diagnostics all land at the domain boundary.
func TestNoFindingsInHelpers(t *testing.T) {
	for _, d := range Analyzer.RunAll(loadTestdata(t)) {
		if strings.Contains(d.Pos.Filename, "helpers") || strings.Contains(d.Pos.Filename, "hclock") {
			t.Errorf("finding outside any domain: %s", d)
		}
	}
}

// TestDetflowRepoIsClean runs detflow over the whole module: every
// laundering call site must be fixed or carry a reasoned
// //lint:allow(detflow), and none of those allows may be stale.
func TestDetflowRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	pkgs, err := lint.Load("../../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	for _, d := range lint.Run(pkgs, []*lint.Analyzer{Analyzer}) {
		t.Errorf("finding: %s", d)
	}
}
