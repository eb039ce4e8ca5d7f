package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed and (best-effort) type-checked directory.
type Package struct {
	Fset       *token.FileSet
	Dir        string // relative to the loader root; "." for the root package
	ImportPath string
	ModulePath string      // the loader's module path, shared by every package of a run
	Files      []*ast.File // primary package files plus external _test package files
	Info       *types.Info

	loader *Loader
}

// Loader discovers, parses and type-checks the packages of one module tree
// without golang.org/x/tools: in-module imports are resolved by recursively
// type-checking the imported directory, stdlib imports through the gc source
// importer. All positions share one FileSet so diagnostics are comparable
// across packages.
type Loader struct {
	Root       string // absolute module root
	ModulePath string

	fset    *token.FileSet
	std     types.Importer
	cache   map[string]*checkedPkg
	loading map[string]bool
	parsed  map[string]*dirFiles
}

// dirFiles memoizes one directory's parse so the AST nodes (and therefore
// the types.Info keys) are shared between import-driven checks and LoadDir.
type dirFiles struct {
	primary  []*ast.File
	external []*ast.File
}

type checkedPkg struct {
	pkg  *types.Package
	info *types.Info
}

// NewLoader builds a loader for the module rooted at root. modulePath may be
// empty, in which case it is read from root/go.mod (defaulting to "main").
func NewLoader(root, modulePath string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	if modulePath == "" {
		modulePath = readModulePath(filepath.Join(abs, "go.mod"))
	}
	fset := token.NewFileSet()
	return &Loader{
		Root:       abs,
		ModulePath: modulePath,
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		cache:      map[string]*checkedPkg{},
		loading:    map[string]bool{},
		parsed:     map[string]*dirFiles{},
	}, nil
}

// inModule reports whether path names a package of the module.
func inModule(modulePath, path string) bool {
	return path == modulePath || strings.HasPrefix(path, modulePath+"/")
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(gomod string) string {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "main"
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return "main"
}

// GoDirs walks the tree under root and returns every directory (relative to
// root, "." for root itself) holding at least one .go file. testdata, vendor,
// hidden and underscore-prefixed directories are skipped, matching the go
// tool's conventions.
func (l *Loader) GoDirs() ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(l.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != l.Root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		rel, err := filepath.Rel(l.Root, filepath.Dir(path))
		if err != nil {
			return err
		}
		if len(dirs) == 0 || dirs[len(dirs)-1] != rel {
			dirs = append(dirs, rel)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	dirs = dedupStrings(dirs)
	return dirs, nil
}

// LoadDir parses and type-checks the package in dir (relative to root),
// including its in-package and external test files.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	primary, external, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(primary) == 0 && len(external) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	importPath := l.importPathFor(dir)

	cp, err := l.check(importPath, primary)
	if err != nil {
		return nil, err
	}
	info := cp.info

	files := append([]*ast.File(nil), primary...)
	if len(external) > 0 {
		extInfo := newTypesInfo()
		conf := l.config()
		// Best effort: external test packages import the primary package,
		// which is already cached, so this resolves without recursion.
		conf.Check(importPath+"_test", l.fset, external, extInfo) //nolint:errcheck
		info = mergeInfo(info, extInfo)
		files = append(files, external...)
	}

	return &Package{
		Fset:       l.fset,
		Dir:        dir,
		ImportPath: importPath,
		ModulePath: l.ModulePath,
		Files:      files,
		Info:       info,
		loader:     l,
	}, nil
}

// Import resolves an import path for go/types: in-module paths recurse into
// the loader, anything else goes to the stdlib source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if cp, ok := l.cache[path]; ok {
		return cp.pkg, nil
	}
	if inModule(l.ModulePath, path) {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		if rel == "" {
			rel = "."
		}
		primary, _, err := l.parseDir(rel)
		if err != nil {
			return nil, err
		}
		cp, err := l.check(path, primary)
		if err != nil {
			return nil, err
		}
		return cp.pkg, nil
	}
	return l.std.Import(path)
}

// check type-checks one package unit and caches the result under importPath.
func (l *Loader) check(importPath string, files []*ast.File) (*checkedPkg, error) {
	if cp, ok := l.cache[importPath]; ok {
		return cp, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("analysis: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	info := newTypesInfo()
	conf := l.config()
	// Type errors are collected softly: Info still carries everything the
	// checker resolved, and passes treat missing entries as unknown.
	pkg, _ := conf.Check(importPath, l.fset, files, info)
	cp := &checkedPkg{pkg: pkg, info: info}
	l.cache[importPath] = cp
	return cp, nil
}

func (l *Loader) config() types.Config {
	return types.Config{
		Importer:         l,
		Error:            func(error) {}, // soft errors: keep checking
		FakeImportC:      true,
		IgnoreFuncBodies: false,
	}
}

// parseDir parses every .go file of dir (relative to root) with comments,
// splitting the result into primary-package files (in-package tests included)
// and external _test package files. Filenames in the FileSet are relative to
// the loader root so diagnostics print stable module-relative paths.
func (l *Loader) parseDir(dir string) (primary, external []*ast.File, err error) {
	if df, ok := l.parsed[dir]; ok {
		return df.primary, df.external, nil
	}
	defer func() {
		if err == nil {
			l.parsed[dir] = &dirFiles{primary: primary, external: external}
		}
	}()
	absDir := filepath.Join(l.Root, dir)
	entries, err := os.ReadDir(absDir)
	if err != nil {
		return nil, nil, err
	}
	type parsed struct {
		file *ast.File
		name string
	}
	var files []parsed
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, "_") || strings.HasPrefix(name, ".") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(absDir, name))
		if err != nil {
			return nil, nil, err
		}
		rel := name
		if dir != "." {
			rel = filepath.ToSlash(filepath.Join(dir, name))
		}
		f, err := parser.ParseFile(l.fset, rel, src, parser.ParseComments)
		if err != nil {
			return nil, nil, fmt.Errorf("analysis: parsing %s: %w", rel, err)
		}
		files = append(files, parsed{file: f, name: name})
	}
	// The primary package name is the one used by non-test files (falling
	// back to the first file for test-only directories).
	pkgName := ""
	for _, p := range files {
		if !strings.HasSuffix(p.name, "_test.go") {
			pkgName = p.file.Name.Name
			break
		}
	}
	if pkgName == "" && len(files) > 0 {
		pkgName = strings.TrimSuffix(files[0].file.Name.Name, "_test")
	}
	for _, p := range files {
		if p.file.Name.Name == pkgName+"_test" {
			external = append(external, p.file)
		} else {
			primary = append(primary, p.file)
		}
	}
	return primary, external, nil
}

func (l *Loader) importPathFor(dir string) string {
	if dir == "." || dir == "" {
		return l.ModulePath
	}
	return l.ModulePath + "/" + filepath.ToSlash(dir)
}

func newTypesInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
}

// mergeInfo folds the entries of extra into base (the node sets of a package
// unit and its external test unit are disjoint, so this is a plain union).
func mergeInfo(base, extra *types.Info) *types.Info {
	for k, v := range extra.Types {
		base.Types[k] = v
	}
	for k, v := range extra.Defs {
		base.Defs[k] = v
	}
	for k, v := range extra.Uses {
		base.Uses[k] = v
	}
	for k, v := range extra.Selections {
		base.Selections[k] = v
	}
	for k, v := range extra.Implicits {
		base.Implicits[k] = v
	}
	return base
}

func dedupStrings(in []string) []string {
	out := in[:0]
	for i, s := range in {
		if i == 0 || in[i-1] != s {
			out = append(out, s)
		}
	}
	return out
}
