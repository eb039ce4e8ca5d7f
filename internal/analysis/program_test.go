package analysis

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// findFunc locates a FuncNode by its rendered name, failing the test when it
// is absent so callers can chain assertions without nil checks.
func findFunc(t *testing.T, prog *Program, name string) *FuncNode {
	t.Helper()
	for _, n := range prog.Funcs {
		if n.Name == name {
			return n
		}
	}
	t.Fatalf("function %s not found in program (have %d funcs)", name, len(prog.Funcs))
	return nil
}

// TestCrossPackageCallGraph builds a Program over the wallclock fixture tree
// (three packages) and asserts calls resolve across package boundaries: the
// synergy helper must link to util.Stamp's in-module body, which chains to
// stampImpl and finally to the external time.Now leaf.
func TestCrossPackageCallGraph(t *testing.T) {
	pkgs := loadFixtures(t, "wallclock/internal/synergy", "wallclock/internal/util", "wallclock/internal/obs")
	prog := NewProgram(pkgs)

	helper := findFunc(t, prog, "fixture/wallclock/internal/util.Stamp")
	if helper.External() {
		t.Fatalf("util.Stamp resolved as external; cross-package body not linked")
	}

	caller := findFunc(t, prog, "fixture/wallclock/internal/synergy.measureViaHelper")
	var viaEdge bool
	for _, e := range prog.Callees(caller) {
		if e.Callee == helper {
			viaEdge = true
		}
	}
	if !viaEdge {
		t.Fatalf("measureViaHelper has no edge to util.Stamp; callees: %v", prog.Callees(caller))
	}

	impl := findFunc(t, prog, "fixture/wallclock/internal/util.stampImpl")
	var hitsClock bool
	for _, e := range prog.Callees(impl) {
		if e.Callee.External() && e.Callee.Name == "time.Now" {
			hitsClock = true
		}
	}
	if !hitsClock {
		t.Fatalf("stampImpl does not reach the external time.Now leaf; callees: %v", prog.Callees(impl))
	}

	// Backward reachability must carry the taint from time.Now all the way
	// up to the cross-package caller, while the obs quarantine stays out.
	reached := prog.Reaches(
		func(n *FuncNode) bool { return n.External() && n.Name == "time.Now" },
		func(n *FuncNode) bool { return n.Pkg != nil && strings.HasSuffix(n.Pkg.ImportPath, "/internal/obs") },
	)
	if !reached[caller] {
		t.Errorf("measureViaHelper should transitively reach time.Now")
	}
	for n := range reached {
		if n.Pkg != nil && strings.HasSuffix(n.Pkg.ImportPath, "/internal/obs") {
			t.Errorf("quarantined obs function %s leaked into the reach set", n.Name)
		}
	}
}

// TestLoaderCacheReuse asserts that loading a package already type-checked as
// a dependency of an earlier LoadDir reuses the cached check verbatim — the
// same types objects — rather than re-checking. Object identity across
// packages is what lets the call graph link cross-package edges at all.
func TestLoaderCacheReuse(t *testing.T) {
	l, err := NewLoader("testdata", "fixture")
	if err != nil {
		t.Fatal(err)
	}
	// Loading synergy pulls in util (and obs) through the import graph.
	if _, err := l.LoadDir("wallclock/internal/synergy"); err != nil {
		t.Fatal(err)
	}
	cached, ok := l.cache["fixture/wallclock/internal/util"]
	if !ok {
		t.Fatalf("loading synergy did not populate the cache with its util dependency; cache keys: %d", len(l.cache))
	}
	if _, err := l.LoadDir("wallclock/internal/util"); err != nil {
		t.Fatal(err)
	}
	if after := l.cache["fixture/wallclock/internal/util"]; after != cached {
		t.Errorf("LoadDir(util) replaced the cached check instead of reusing it")
	}
	if cached.pkg.Name() != "util" {
		t.Errorf("cached package name = %q, want util", cached.pkg.Name())
	}
}

// fixtureUniverse lists every fixture directory of every registered case,
// deduplicated, in registration order.
func fixtureUniverse() []string {
	seen := map[string]bool{}
	var dirs []string
	for _, tc := range fixtureCases {
		for _, d := range tc.dirs {
			if !seen[d] {
				seen[d] = true
				dirs = append(dirs, d)
			}
		}
	}
	return dirs
}

// runAll loads the given fixture dirs in the given order and renders the
// findings of the full default runner.
func runAll(t *testing.T, dirs []string) string {
	t.Helper()
	pkgs := loadFixtures(t, dirs...)
	return renderDiags(NewRunner().Run(pkgs))
}

// TestRunDeterministicAcrossOrderings pins the determinism contract of the
// linter itself: the rendered findings over the whole fixture universe must
// be byte-identical across repeated runs and across package-load orderings.
func TestRunDeterministicAcrossOrderings(t *testing.T) {
	dirs := fixtureUniverse()
	base := runAll(t, dirs)
	if base == "" {
		t.Fatal("fixture universe produced no findings; determinism test is vacuous")
	}
	if again := runAll(t, dirs); again != base {
		t.Errorf("second run differs from first over identical inputs")
	}
	rev := make([]string, len(dirs))
	for i, d := range dirs {
		rev[len(dirs)-1-i] = d
	}
	if got := runAll(t, rev); got != base {
		t.Errorf("reversed load order changed the findings\n--- forward ---\n%s--- reversed ---\n%s", base, got)
	}
}

// TestWriteCallsDeterministic asserts the -calls dump is byte-identical
// across runs and load orderings, so it can be diffed in CI.
func TestWriteCallsDeterministic(t *testing.T) {
	dirs := []string{"wallclock/internal/synergy", "wallclock/internal/util", "wallclock/internal/obs"}
	dump := func(order []string) string {
		var b strings.Builder
		if err := NewProgram(loadFixtures(t, order...)).WriteCalls(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	base := dump(dirs)
	if base == "" {
		t.Fatal("empty call-graph dump")
	}
	if got := dump([]string{dirs[2], dirs[1], dirs[0]}); got != base {
		t.Errorf("call-graph dump depends on package load order\n--- forward ---\n%s--- reversed ---\n%s", base, got)
	}
}

// TestNoProgramEdgeIntoTests requires that no dynamic edge from a function
// outside _test.go files lands in a function or literal declared in one,
// first over the unreachable fixture (whose lib_test.go makes a Reader and
// hands Twice a func() literal), then over the whole module loaded the way
// `dsalint ./...` loads it. A program is built without test files, so such
// an edge is one no program can take.
func TestNoProgramEdgeIntoTests(t *testing.T) {
	if into := edgesIntoTests(NewProgram(loadFixtures(t, "unreachable", "unreachable/lib"))); len(into) > 0 {
		t.Errorf("unreachable fixture: %d dynamic edges into _test.go files:\n%s", len(into), strings.Join(into, "\n"))
	}

	l, err := NewLoader(filepath.Join("..", ".."), "")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := l.GoDirs()
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, d := range dirs {
		pkg, err := l.LoadDir(d)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	prog := NewProgram(pkgs)
	if !prog.wholeModule() {
		t.Fatal("the run did not load every package of the module")
	}
	if into := edgesIntoTests(prog); len(into) > 0 {
		t.Errorf("module: %d dynamic edges from non-test functions into _test.go files, the first:\n%s",
			len(into), strings.Join(into[:min(len(into), 10)], "\n"))
	}
}

// edgesIntoTests lists the dynamic edges from functions outside _test.go
// files into functions or literals declared in one.
func edgesIntoTests(prog *Program) []string {
	var into []string
	for _, n := range prog.Funcs {
		if prog.inTestFile(n) {
			continue
		}
		for _, e := range prog.Callees(n) {
			if e.Kind == EdgeDynamic && !e.Callee.External() && prog.inTestFile(e.Callee) {
				pos := prog.Fset.Position(e.Site.Pos())
				into = append(into, fmt.Sprintf("%s:%d: %s -> %s", pos.Filename, pos.Line, n.Name, e.Callee.Name))
			}
		}
	}
	return into
}
