package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixtureCases maps each pass to the fixture directories it runs over. Every
// directory holds seeded violations (bad.go) next to clean counterparts
// (good.go and exemption files), so a golden match asserts both the positive
// and the negative behaviour of the pass.
var fixtureCases = []struct {
	analyzer *Analyzer
	dirs     []string
}{
	{UnitCheck, []string{"unitcheck"}},
	{FloatEq, []string{"floateq"}},
	{RandSource, []string{"randsource", "randsource/internal/xrand"}},
	{MapOrder, []string{"maporder"}},
	{GoroLeak, []string{"goroleak/internal/synergy", "goroleak/other"}},
	{DeadAssign, []string{"deadassign"}},
	{SortSlice, []string{"sortslice/internal/ml", "sortslice/other"}},
	{ForkAbsorb, []string{"forkabsorb", "forkabsorb/internal/obs", "forkabsorb/internal/parallel", "forkabsorb/internal/xrand"}},
	{WallClock, []string{"wallclock/internal/synergy", "wallclock/internal/obs", "wallclock/internal/util"}},
	{DetLoop, []string{"detloop"}},
	{SharedWrite, []string{"sharedwrite", "sharedwrite/internal/parallel"}},
	{FloatAcc, []string{"floatacc", "floatacc/internal/parallel"}},
	{Unreachable, []string{"unreachable", "unreachable/lib"}},
}

// loadFixtures loads the named testdata directories with a shared loader
// rooted at testdata. A first directory holding its own go.mod, with every
// other directory inside it, is loaded as a module of its own, the way
// dsalint loads the repository: the loader is rooted there, so a run over
// all of its directories holds the whole module.
func loadFixtures(t *testing.T, dirs ...string) []*Package {
	t.Helper()
	root, modulePath := "testdata", "fixture"
	if _, err := os.Stat(filepath.Join(root, dirs[0], "go.mod")); err == nil && within(dirs[0], dirs) {
		root, modulePath = filepath.Join(root, dirs[0]), ""
		rel := make([]string, len(dirs))
		for i, d := range dirs {
			rel[i] = strings.TrimPrefix(strings.TrimPrefix(d, dirs[0]), "/")
			if rel[i] == "" {
				rel[i] = "."
			}
		}
		dirs = rel
	}
	l, err := NewLoader(root, modulePath)
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, d := range dirs {
		pkg, err := l.LoadDir(d)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", d, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs
}

// within reports whether every directory of dirs is top or lies below it.
func within(top string, dirs []string) bool {
	for _, d := range dirs {
		if d != top && !strings.HasPrefix(d, top+"/") {
			return false
		}
	}
	return true
}

func renderDiags(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestPassFixtures runs each pass in isolation over its fixtures and
// compares the findings with the checked-in golden file. Regenerate goldens
// with DSALINT_UPDATE=1 go test ./internal/analysis.
func TestPassFixtures(t *testing.T) {
	for _, tc := range fixtureCases {
		t.Run(tc.analyzer.Name, func(t *testing.T) {
			pkgs := loadFixtures(t, tc.dirs...)
			r := &Runner{Analyzers: []*Analyzer{tc.analyzer}, Disabled: map[string]bool{}}
			got := renderDiags(r.Run(pkgs))
			if got == "" {
				t.Fatalf("%s caught nothing; every pass must detect its seeded violations", tc.analyzer.Name)
			}

			golden := filepath.Join("testdata", tc.dirs[0], "expected.golden")
			if os.Getenv("DSALINT_UPDATE") != "" {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with DSALINT_UPDATE=1 to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("findings mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestFixtureNegativesAreCovered asserts no finding ever points into a
// good.go or *_test.go fixture file: the clean counterparts must stay clean.
func TestFixtureNegativesAreCovered(t *testing.T) {
	for _, tc := range fixtureCases {
		pkgs := loadFixtures(t, tc.dirs...)
		r := &Runner{Analyzers: []*Analyzer{tc.analyzer}, Disabled: map[string]bool{}}
		for _, d := range r.Run(pkgs) {
			base := filepath.Base(d.File)
			if base == "good.go" || strings.HasSuffix(base, "_test.go") || strings.Contains(d.File, "other") || strings.Contains(d.File, "xrand") {
				t.Errorf("%s flagged a clean fixture: %s", tc.analyzer.Name, d)
			}
		}
	}
}

// TestUnreachableSilentOnPartialRun loads the fixture module's library
// without its program: a run that cannot see every program of the module
// must not report what they reach.
func TestUnreachableSilentOnPartialRun(t *testing.T) {
	l, err := NewLoader(filepath.Join("testdata", "unreachable"), "")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir("lib")
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Analyzers: []*Analyzer{Unreachable}, Disabled: map[string]bool{}}
	if diags := r.Run([]*Package{pkg}); len(diags) != 0 {
		t.Errorf("partial run reported:\n%s", renderDiags(diags))
	}
}
