package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"slices"
	"sort"
)

// This file is the interprocedural core of the suite: a call graph built
// once per Runner.Run over every loaded package, shared by all passes through
// Pass.Prog. The graph is deliberately conservative in the direction the
// determinism passes need — it may over-approximate callees (flagging is
// then suppressed case by case) but must not silently drop reachable code,
// because a missed edge is a missed wall-clock read or output sink.
//
// Resolution strategy per call site, in order:
//
//   - static calls (package-level functions, concrete methods, method
//     values): the *types.Func the identifier resolves to;
//   - interface method calls: rapid type analysis by syntax (Bacon and
//     Sweeney, OOPSLA '96) — every non-test method of an in-module type that
//     non-test code names (in Go, the only way to make a T) and whose
//     (pointer) method set satisfies the interface;
//   - calls through values of function type: every in-module function or
//     literal whose address non-test code takes and whose signature matches;
//   - in-module functions named as arguments of an out-of-module call (a
//     comparator handed to slices.SortFunc): dynamic callees of that call,
//     because the standard library calls them where the graph cannot see;
//   - function literals: charged to the function that lexically contains
//     them with a "contains" edge, because closures in this codebase are
//     overwhelmingly invoked by the orchestration code they are handed to
//     (parallel.ForEach, defer, go). A literal that is built but never run
//     is over-approximated as reachable, which is the safe direction.
//
// Out-of-module callees (stdlib, which is all this module imports) become
// body-less leaf nodes so source/sink predicates can match them by full name
// (e.g. "time.Now") without the graph recursing into the standard library.

// FuncNode is one function in the call graph: a declared function or method,
// a function literal, or a body-less external (stdlib) leaf.
type FuncNode struct {
	// Obj is the type-checker object, nil only for function literals.
	Obj *types.Func
	// Decl is the defining *ast.FuncDecl or *ast.FuncLit; nil for externals.
	Decl ast.Node
	// Body is the function body; nil for externals and body-less decls.
	Body *ast.BlockStmt
	// Pkg is the loaded package holding the body; nil for externals.
	Pkg *Package
	// Name is the stable display name: "path/to/pkg.Func",
	// "path/to/pkg.(*T).Method", or "path/to/pkg.Parent$1" for literals.
	Name string
	// Enclosing is the node lexically containing this literal; nil for
	// declared functions and externals.
	Enclosing *FuncNode

	pos token.Pos
}

// External reports whether the node has no body in the loaded module
// (stdlib or unresolved).
func (n *FuncNode) External() bool { return n.Body == nil }

// FullName returns the canonical identifier used by source/sink predicates:
// Obj.FullName() for declared functions ("time.Now",
// "(*dsenergy/internal/obs.Observer).ForkN"), Name for literals.
func (n *FuncNode) FullName() string {
	if n.Obj != nil {
		return n.Obj.FullName()
	}
	return n.Name
}

// EdgeKind distinguishes how an edge was resolved.
type EdgeKind uint8

const (
	// EdgeStatic is a direct call of a known function or concrete method.
	EdgeStatic EdgeKind = iota
	// EdgeDynamic is a resolved interface or function-value call.
	EdgeDynamic
	// EdgeContains links a function to a literal defined inside it.
	EdgeContains
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeStatic:
		return "static"
	case EdgeDynamic:
		return "dynamic"
	default:
		return "contains"
	}
}

// CallEdge is one resolved caller→callee relation.
type CallEdge struct {
	Caller *FuncNode
	Callee *FuncNode
	// Site is the call expression, or the literal itself for EdgeContains.
	Site ast.Node
	Kind EdgeKind
}

// Program is the whole-module view handed to interprocedural passes.
type Program struct {
	Fset       *token.FileSet
	Packages   []*Package
	ModulePath string

	// Funcs lists every node with a body, in source order.
	Funcs []*FuncNode

	byObj     map[*types.Func]*FuncNode
	byLit     map[*ast.FuncLit]*FuncNode
	externals map[*types.Func]*FuncNode
	callees   map[*FuncNode][]CallEdge
	callers   map[*FuncNode][]CallEdge
	siteEdges map[*ast.CallExpr][]*FuncNode

	// addrTaken and named are what non-test code can make: the targets of
	// function-value calls, and the receivers of interface calls.
	addrTaken []*FuncNode
	named     map[*types.TypeName]bool

	// reached caches programReach; reachDone marks it computed (nil when the
	// run is partial).
	reached   map[*FuncNode]bool
	reachDone bool
}

// NewProgram builds the call graph for the loaded packages. Packages must
// share one FileSet (the Loader guarantees this); construction is fully
// deterministic given the package order.
func NewProgram(pkgs []*Package) *Program {
	p := &Program{
		Fset:      sharedFset(pkgs),
		Packages:  pkgs,
		byObj:     map[*types.Func]*FuncNode{},
		byLit:     map[*ast.FuncLit]*FuncNode{},
		externals: map[*types.Func]*FuncNode{},
		callees:   map[*FuncNode][]CallEdge{},
		callers:   map[*FuncNode][]CallEdge{},
		siteEdges: map[*ast.CallExpr][]*FuncNode{},
	}
	if len(pkgs) > 0 {
		p.ModulePath = pkgs[0].ModulePath
	}
	p.indexFuncs()
	p.collectRefs()
	for _, n := range p.Funcs {
		p.resolveBody(n)
	}
	return p
}

func sharedFset(pkgs []*Package) *token.FileSet {
	if len(pkgs) > 0 {
		return pkgs[0].Fset
	}
	return token.NewFileSet()
}

// indexFuncs registers a node for every declared function and literal of
// every package, in source order.
func (p *Program) indexFuncs() {
	for _, pkg := range p.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				node := &FuncNode{
					Obj:  obj,
					Decl: fd,
					Body: fd.Body,
					Pkg:  pkg,
					Name: declName(pkg, fd, obj),
					pos:  fd.Pos(),
				}
				p.Funcs = append(p.Funcs, node)
				if obj != nil {
					p.byObj[obj] = node
				}
				p.indexLiterals(pkg, node, fd.Body)
			}
		}
	}
}

// indexLiterals registers the function literals nested in body, numbered in
// source order relative to their named ancestor.
func (p *Program) indexLiterals(pkg *Package, outer *FuncNode, body *ast.BlockStmt) {
	count := 0
	var walk func(n ast.Node, parent *FuncNode)
	walk = func(n ast.Node, parent *FuncNode) {
		ast.Inspect(n, func(m ast.Node) bool {
			lit, ok := m.(*ast.FuncLit)
			if !ok {
				return true
			}
			count++
			node := &FuncNode{
				Decl:      lit,
				Body:      lit.Body,
				Pkg:       pkg,
				Name:      fmt.Sprintf("%s$%d", outer.Name, count),
				Enclosing: parent,
				pos:       lit.Pos(),
			}
			p.Funcs = append(p.Funcs, node)
			p.byLit[lit] = node
			walk(lit.Body, node)
			return false // children already walked with the right parent
		})
	}
	walk(body, outer)
}

func declName(pkg *Package, fd *ast.FuncDecl, obj *types.Func) string {
	if obj != nil {
		return obj.FullName()
	}
	return pkg.ImportPath + "." + fd.Name.Name
}

// external interns a body-less leaf for an out-of-module function.
func (p *Program) external(obj *types.Func) *FuncNode {
	if n, ok := p.externals[obj]; ok {
		return n
	}
	n := &FuncNode{Obj: obj, Name: obj.FullName()}
	p.externals[obj] = n
	return n
}

// collectRefs walks the non-test files. It records every in-module function
// or method referenced outside call position (method values included) and
// every literal not immediately invoked, the candidate targets of calls
// through function-typed values; and every type named, through an alias too,
// outside a method receiver, which names the type a method belongs to rather
// than a value of it.
func (p *Program) collectRefs() {
	seen := map[*FuncNode]bool{}
	p.named = map[*types.TypeName]bool{}
	for _, pkg := range p.Packages {
		// called holds the names in call position. ast.Inspect visits a call
		// before its Fun, so the name is excluded before it is reached.
		called := map[*ast.Ident]bool{}
		for _, f := range pkg.Files {
			if isTestFile(p.Fset, f.Pos()) {
				continue
			}
			var recv *ast.FieldList
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.FuncDecl:
					recv = x.Recv // visited next, before the signature and body
				case *ast.FieldList:
					return x != recv
				case *ast.CallExpr:
					switch fun := calleeExpr(x.Fun).(type) {
					case *ast.Ident:
						called[fun] = true
					case *ast.SelectorExpr:
						called[fun.Sel] = true
					}
				case *ast.Ident:
					if !called[x] {
						p.markAddrTaken(pkg, x, seen)
					}
					if tn, ok := pkg.Info.Uses[x].(*types.TypeName); ok {
						p.named[ownerOf(types.Unalias(tn.Type()))] = true
					}
				case *ast.FuncLit:
					if node := p.byLit[x]; node != nil && !seen[node] {
						seen[node] = true
						p.addrTaken = append(p.addrTaken, node)
					}
				}
				return true
			})
		}
	}
	sort.SliceStable(p.addrTaken, func(i, j int) bool { return p.addrTaken[i].pos < p.addrTaken[j].pos })
}

func (p *Program) markAddrTaken(pkg *Package, id *ast.Ident, seen map[*FuncNode]bool) {
	obj, ok := pkg.Info.Uses[id].(*types.Func)
	if !ok {
		return
	}
	node := p.byObj[obj.Origin()]
	if node == nil || seen[node] {
		return
	}
	seen[node] = true
	p.addrTaken = append(p.addrTaken, node)
}

// resolveBody adds the outgoing edges of one function: its calls and the
// literals it contains. Nested literal bodies are charged to the literal.
func (p *Program) resolveBody(n *FuncNode) {
	walkShallow(n.Body, func(m ast.Node) {
		switch x := m.(type) {
		case *ast.CallExpr:
			callees := p.resolveCall(n.Pkg, x)
			for _, callee := range callees {
				p.addEdge(CallEdge{Caller: n, Callee: callee, Site: x, Kind: edgeKindFor(n.Pkg, x, callee)})
				p.siteEdges[x] = append(p.siteEdges[x], callee)
			}
			if slices.ContainsFunc(callees, (*FuncNode).External) {
				for _, arg := range x.Args {
					if target := p.funcRef(n.Pkg, arg); target != nil {
						p.addEdge(CallEdge{Caller: n, Callee: target, Site: x, Kind: EdgeDynamic})
						p.siteEdges[x] = append(p.siteEdges[x], target)
					}
				}
			}
		case *ast.FuncLit:
			if lit := p.byLit[x]; lit != nil {
				p.addEdge(CallEdge{Caller: n, Callee: lit, Site: x, Kind: EdgeContains})
			}
		}
	})
}

func edgeKindFor(pkg *Package, call *ast.CallExpr, callee *FuncNode) EdgeKind {
	if obj := staticCallee(pkg, call); obj != nil && callee.Obj == obj {
		return EdgeStatic
	}
	if _, ok := unparen(call.Fun).(*ast.FuncLit); ok {
		return EdgeStatic
	}
	return EdgeDynamic
}

// resolveCall returns the possible callees of one call expression in
// deterministic order.
func (p *Program) resolveCall(pkg *Package, call *ast.CallExpr) []*FuncNode {
	// Static resolution first: plain functions, concrete methods, package-
	// qualified calls, method values.
	if obj := staticCallee(pkg, call); obj != nil {
		if node := p.byObj[obj]; node != nil {
			return []*FuncNode{node}
		}
		if iface := interfaceMethodOf(obj); iface == nil {
			return []*FuncNode{p.external(obj)}
		}
		// Interface method: the in-module implementations non-test code can
		// make, keeping the external leaf so predicates on the interface
		// method still fire.
		targets := p.implementationsOf(obj)
		return append(targets, p.external(obj))
	}
	switch fun := unparen(call.Fun).(type) {
	case *ast.FuncLit:
		if node := p.byLit[fun]; node != nil {
			return []*FuncNode{node}
		}
	default:
		// Call through a function-typed value: the functions and literals
		// whose address non-test code takes, with an identical signature. A
		// builtin such as min has a signature at each call but is no value.
		if sig, ok := typeOf(pkg, call.Fun).(*types.Signature); ok && !pkg.Info.Types[call.Fun].IsBuiltin() {
			return p.funcValueTargets(sig)
		}
	}
	return nil
}

// funcRef returns the in-module function or method that e names without
// calling it (f, pkg.F, f[int], a method value or method expression), or
// nil.
func (p *Program) funcRef(pkg *Package, e ast.Expr) *FuncNode {
	var id *ast.Ident
	switch x := calleeExpr(e).(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return nil
	}
	if obj, ok := pkg.Info.Uses[id].(*types.Func); ok {
		return p.byObj[obj.Origin()]
	}
	return nil
}

// staticCallee resolves call.Fun to a *types.Func when the callee is known
// statically (including interface methods, which the caller expands). A
// function or method of an instantiated generic type resolves to its generic
// declaration, the object the graph indexes.
func staticCallee(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := calleeExpr(call.Fun).(type) {
	case *ast.Ident:
		if obj, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return obj.Origin()
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			if obj, ok := sel.Obj().(*types.Func); ok {
				return obj.Origin()
			}
			return nil
		}
		// Package-qualified call (fmt.Fprintf): no Selection entry.
		if obj, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return obj.Origin()
		}
	}
	return nil
}

// calleeExpr strips the parentheses and explicit type arguments around a
// callee: (f), f[int] and pkg.F[K, V] name f and pkg.F.
func calleeExpr(fun ast.Expr) ast.Expr {
	for {
		switch x := unparen(fun).(type) {
		case *ast.IndexExpr:
			fun = x.X
		case *ast.IndexListExpr:
			fun = x.X
		default:
			return x
		}
	}
}

// interfaceMethodOf returns the receiver interface of obj, or nil when obj
// is a plain function or concrete method.
func interfaceMethodOf(obj *types.Func) *types.Interface {
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	iface, _ := sig.Recv().Type().Underlying().(*types.Interface)
	return iface
}

// implementationsOf expands an interface method call to every in-module
// concrete method satisfying the interface whose receiver type non-test code
// names, declared outside _test.go files, sorted by position.
func (p *Program) implementationsOf(m *types.Func) []*FuncNode {
	iface := interfaceMethodOf(m)
	if iface == nil {
		return nil
	}
	var out []*FuncNode
	for _, n := range p.Funcs {
		if n.Obj == nil || p.inTestFile(n) {
			continue
		}
		sig := n.Obj.Type().(*types.Signature)
		recv := sig.Recv()
		if recv == nil || n.Obj.Name() != m.Name() || !p.named[ownerOf(recv.Type())] {
			continue
		}
		rt := recv.Type()
		if types.Implements(rt, iface) || types.Implements(types.NewPointer(rt), iface) {
			out = append(out, n)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}

// funcValueTargets lists the address-taken nodes whose signature matches. A
// method matches through its method value, whose signature drops the
// receiver.
func (p *Program) funcValueTargets(sig *types.Signature) []*FuncNode {
	var out []*FuncNode
	for _, n := range p.addrTaken {
		var nsig *types.Signature
		switch {
		case n.Obj != nil:
			nsig = n.Obj.Type().(*types.Signature)
		case n.Pkg != nil:
			if lit, ok := n.Decl.(*ast.FuncLit); ok {
				nsig, _ = typeOf(n.Pkg, lit).(*types.Signature)
			}
		}
		if nsig == nil {
			continue
		}
		if types.Identical(types.NewSignatureType(nil, nil, nil, nsig.Params(), nsig.Results(), nsig.Variadic()), sig) {
			out = append(out, n)
		}
	}
	return out
}

func (p *Program) addEdge(e CallEdge) {
	p.callees[e.Caller] = append(p.callees[e.Caller], e)
	p.callers[e.Callee] = append(p.callers[e.Callee], e)
}

// Callees returns the outgoing edges of n in source order.
func (p *Program) Callees(n *FuncNode) []CallEdge { return p.callees[n] }

// CalleesAt returns the resolved targets of one call expression.
func (p *Program) CalleesAt(call *ast.CallExpr) []*FuncNode { return p.siteEdges[call] }

// WriteCalls dumps the call graph as deterministic text: one line per edge,
// suitable for the driver's -calls debugging flag. Ordering goes through
// resolved file positions (not raw token.Pos, which depends on FileSet
// registration order), so the dump is byte-identical across load orderings
// and can be diffed in CI.
func (p *Program) WriteCalls(w io.Writer) error {
	posKey := func(pos token.Pos) string {
		pp := p.Fset.Position(pos)
		return fmt.Sprintf("%s:%06d:%04d", pp.Filename, pp.Line, pp.Column)
	}
	nodes := make([]*FuncNode, 0, len(p.Funcs))
	for _, n := range p.Funcs {
		if len(p.callees[n]) > 0 {
			nodes = append(nodes, n)
		}
	}
	sort.Slice(nodes, func(i, j int) bool {
		ki, kj := posKey(nodes[i].pos), posKey(nodes[j].pos)
		if ki != kj {
			return ki < kj
		}
		return nodes[i].Name < nodes[j].Name
	})
	for _, n := range nodes {
		if _, err := fmt.Fprintf(w, "%s:\n", n.Name); err != nil {
			return err
		}
		edges := append([]CallEdge(nil), p.callees[n]...)
		sort.Slice(edges, func(i, j int) bool {
			ki, kj := posKey(edges[i].Site.Pos()), posKey(edges[j].Site.Pos())
			if ki != kj {
				return ki < kj
			}
			if edges[i].Kind != edges[j].Kind {
				return edges[i].Kind < edges[j].Kind
			}
			return edges[i].Callee.Name < edges[j].Callee.Name
		})
		for _, e := range edges {
			pos := p.Fset.Position(e.Site.Pos())
			if _, err := fmt.Fprintf(w, "  -> %-9s %s (%s:%d)\n", e.Kind, e.Callee.Name, pos.Filename, pos.Line); err != nil {
				return err
			}
		}
	}
	return nil
}

func unparen(e ast.Expr) ast.Expr {
	for {
		pe, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = pe.X
	}
}

func typeOf(pkg *Package, e ast.Expr) types.Type {
	if pkg == nil || pkg.Info == nil {
		return nil
	}
	return pkg.Info.TypeOf(e)
}
