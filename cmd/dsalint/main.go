// Command dsalint runs the repository's domain-aware static-analysis suite
// (internal/analysis) over the module and reports findings in the canonical
// file:line:col: [pass] message form. It exits 1 when any finding survives
// suppression, which is what lets ci.sh use it as a hard gate.
//
// Usage:
//
//	go run ./cmd/dsalint [flags] [patterns]
//
// Patterns are package directories relative to the module root; `./...`
// (the default) analyzes the whole module, `./internal/ml` one package and
// `./internal/...` a subtree. The unreachable pass needs every program of the
// module, so it reports only on a run that loads every package. Flags:
//
//	-json            emit findings as a JSON array instead of text
//	-disable=p1,p2   skip the named passes (repeatable, comma-separated)
//	-list            print the available passes and exit
//	-calls           dump the interprocedural call graph instead of linting
//
// Individual findings are suppressed in source with a
// `//dsalint:ignore <pass>` comment on, or on the line above, the flagged
// statement.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"dsenergy/internal/analysis"
)

type disableFlag []string

func (d *disableFlag) String() string { return strings.Join(*d, ",") }
func (d *disableFlag) Set(v string) error {
	for _, name := range strings.Split(v, ",") {
		if name = strings.TrimSpace(name); name != "" {
			*d = append(*d, name)
		}
	}
	return nil
}

func main() {
	var (
		jsonOut bool
		disable disableFlag
		list    bool
		calls   bool
	)
	flag.BoolVar(&jsonOut, "json", false, "emit findings as JSON")
	flag.Var(&disable, "disable", "comma-separated pass names to skip (repeatable)")
	flag.BoolVar(&list, "list", false, "list available passes and exit")
	flag.BoolVar(&calls, "calls", false, "dump the call graph instead of linting")
	flag.Parse()

	if list {
		for _, a := range analysis.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	if err := run(jsonOut, calls, disable, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "dsalint:", err)
		os.Exit(2)
	}
}

func run(jsonOut, calls bool, disable []string, patterns []string) error {
	root, err := findModuleRoot()
	if err != nil {
		return err
	}
	loader, err := analysis.NewLoader(root, "")
	if err != nil {
		return err
	}

	dirs, err := resolvePatterns(loader, root, patterns)
	if err != nil {
		return err
	}

	runner := analysis.NewRunner()
	for _, name := range disable {
		if err := runner.Disable(name); err != nil {
			return err
		}
	}

	var pkgs []*analysis.Package
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			return err
		}
		pkgs = append(pkgs, pkg)
	}

	if calls {
		return analysis.NewProgram(pkgs).WriteCalls(os.Stdout)
	}

	diags := runner.Run(pkgs)
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			return err
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		if !jsonOut {
			fmt.Fprintf(os.Stderr, "dsalint: %d finding(s)\n", len(diags))
		}
		os.Exit(1)
	}
	return nil
}

// findModuleRoot walks up from the working directory to the nearest go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// resolvePatterns maps ./...-style arguments to package directories relative
// to the module root. No arguments means the whole module.
func resolvePatterns(loader *analysis.Loader, root string, patterns []string) ([]string, error) {
	all, err := loader.GoDirs()
	if err != nil {
		return nil, err
	}
	if len(patterns) == 0 {
		return all, nil
	}
	seen := map[string]bool{}
	var dirs []string
	for _, pat := range patterns {
		rel, recursive, err := normalizePattern(root, pat)
		if err != nil {
			return nil, err
		}
		matched := false
		for _, d := range all {
			ok := d == rel
			if recursive && !ok {
				ok = rel == "." || strings.HasPrefix(d, rel+"/")
			}
			if ok && !seen[d] {
				seen[d] = true
				dirs = append(dirs, d)
				matched = true
			} else if ok {
				matched = true
			}
		}
		if !matched {
			return nil, fmt.Errorf("pattern %q matches no packages", pat)
		}
	}
	return dirs, nil
}

func normalizePattern(root, pat string) (rel string, recursive bool, err error) {
	if rest, ok := strings.CutSuffix(pat, "/..."); ok {
		recursive = true
		pat = rest
		if pat == "" || pat == "." {
			return ".", true, nil
		}
	}
	abs, err := filepath.Abs(pat)
	if err != nil {
		return "", false, err
	}
	rel, err = filepath.Rel(root, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", false, fmt.Errorf("pattern %q is outside the module", pat)
	}
	return filepath.ToSlash(rel), recursive, nil
}
