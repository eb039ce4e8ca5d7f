package analysis

import (
	"go/ast"
	"go/types"
)

// Unreachable reports the functions and methods that no program of the
// module runs. The programs are the loaded `package main` directories
// (cmd/*, examples/*, the benchmark); a function counts as run when the call
// graph reaches it from a root:
//
//   - each program's main and every init;
//   - every function a package-level declaration refers to, such as an
//     Analyzer's Run;
//   - every method that lets its type satisfy a standard-library interface
//     (String, Error, flag.Value's Set), which the standard library calls
//     with no edge in the graph.
//
// Functions in _test.go files neither count as roots nor forward reach, so a
// function only tests call is reported too: it belongs in the _test.go file
// that uses it. The pass reports only when the run loaded every package of
// the module; a partial run cannot see every program.
var Unreachable = &Analyzer{
	Name: "unreachable",
	Doc:  "flag functions and methods that no program (cmd/*, examples/*, perfbench) reaches through the call graph",
	Run:  runUnreachable,
}

func runUnreachable(pass *Pass) {
	prog := pass.Prog
	if prog == nil {
		return
	}
	reached := prog.programReach()
	if reached == nil {
		return
	}
	for _, n := range prog.Funcs {
		fd, ok := n.Decl.(*ast.FuncDecl)
		if !ok || n.Pkg.ImportPath != pass.ImportPath || reached[n] || prog.inTestFile(n) {
			continue
		}
		if prog.testCalled(n) {
			pass.Reportf(fd.Name.Pos(), "%s is reached by no program, only by tests: move it into the _test.go file that uses it", n.Name)
		} else {
			pass.Reportf(fd.Name.Pos(), "%s is reached by no program: delete it", n.Name)
		}
	}
}

// programReach returns the functions reachable from the roots the
// Unreachable doc lists, or nil when the run did not load every package of
// the module. The set is computed once per Program.
func (p *Program) programReach() map[*FuncNode]bool {
	if p.reachDone {
		return p.reached
	}
	p.reachDone = true
	if !p.wholeModule() {
		return nil
	}
	p.reached = map[*FuncNode]bool{}
	var work []*FuncNode
	visit := func(n *FuncNode) {
		if n != nil && !n.External() && !p.reached[n] && !p.inTestFile(n) {
			p.reached[n] = true
			work = append(work, n)
		}
	}
	for _, n := range p.roots() {
		visit(n)
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		for _, e := range p.callees[n] {
			visit(e.Callee)
		}
	}
	return p.reached
}

// wholeModule reports whether the run loaded every package directory under
// the loader's root.
func (p *Program) wholeModule() bool {
	if len(p.Packages) == 0 || p.Packages[0].loader == nil {
		return false
	}
	dirs, err := p.Packages[0].loader.GoDirs()
	if err != nil {
		return false
	}
	loaded := map[string]bool{}
	for _, pkg := range p.Packages {
		loaded[pkg.Dir] = true
	}
	for _, d := range dirs {
		if !loaded[d] {
			return false
		}
	}
	return true
}

// roots lists the entry points of programReach in source order.
func (p *Program) roots() []*FuncNode {
	var out []*FuncNode
	stdMethods := stdInterfaceMethods(p.Packages)
	for _, n := range p.Funcs {
		fd, ok := n.Decl.(*ast.FuncDecl)
		if !ok || n.Obj == nil || p.inTestFile(n) {
			continue
		}
		switch name := fd.Name.Name; {
		case fd.Recv == nil && (name == "init" || name == "main" && n.Obj.Pkg().Name() == "main"):
			out = append(out, n)
		case fd.Recv != nil && satisfiesStdInterface(n.Obj, stdMethods[name]):
			out = append(out, n)
		}
	}
	for _, pkg := range p.Packages {
		for _, f := range pkg.Files {
			if isTestFile(p.Fset, f.Pos()) {
				continue
			}
			for _, decl := range f.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok {
					ast.Inspect(gd, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							if obj, ok := pkg.Info.Uses[id].(*types.Func); ok {
								if node := p.byObj[obj.Origin()]; node != nil {
									out = append(out, node)
								}
							}
						}
						return true
					})
				}
			}
		}
	}
	return out
}

// stdInterfaceMethods indexes by method name the method-set interfaces
// declared in the standard-library packages the loaded packages import,
// directly or through other standard-library packages, plus the predeclared
// error.
func stdInterfaceMethods(pkgs []*Package) map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	add := func(iface *types.Interface) {
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			byName[name] = append(byName[name], iface)
		}
	}
	add(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))

	seen := map[*types.Package]bool{}
	var work []*types.Package
	push := func(tp *types.Package) {
		if tp != nil && !seen[tp] {
			seen[tp] = true
			work = append(work, tp)
		}
	}
	for _, pkg := range pkgs {
		if cp := pkg.loader.cache[pkg.ImportPath]; cp != nil && cp.pkg != nil {
			for _, imp := range cp.pkg.Imports() {
				if !inModule(pkg.ModulePath, imp.Path()) {
					push(imp)
				}
			}
		}
	}
	for len(work) > 0 {
		tp := work[len(work)-1]
		work = work[:len(work)-1]
		for _, imp := range tp.Imports() {
			push(imp)
		}
		scope := tp.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.IsMethodSet() {
				add(iface)
			}
		}
	}
	return byName
}

// satisfiesStdInterface reports whether m's receiver type, or a pointer to
// it, implements one of ifaces, each of which declares a method named like m.
func satisfiesStdInterface(m *types.Func, ifaces []*types.Interface) bool {
	if len(ifaces) == 0 || !m.Exported() {
		return false
	}
	recv := m.Type().(*types.Signature).Recv().Type()
	if named := ownerOf(recv); named == nil || named.Type().(*types.Named).TypeParams().Len() > 0 {
		return false // generic receivers are left to the call graph
	}
	for _, iface := range ifaces {
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
			return true
		}
	}
	return false
}

// testCalled reports whether a function in a _test.go file calls n.
func (p *Program) testCalled(n *FuncNode) bool {
	for _, e := range p.callers[n] {
		if p.inTestFile(e.Caller) {
			return true
		}
	}
	return false
}

func (p *Program) inTestFile(n *FuncNode) bool { return isTestFile(p.Fset, n.pos) }
