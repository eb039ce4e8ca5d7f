package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// GoroLeak flags `go` statements in the concurrency-heavy packages
// (goroLeakPackages) whose enclosing function contains no join — no
// sync.WaitGroup Wait, no channel receive, no range over a channel — unless
// the statement launches a method m of a type T that calls Done, in a
// defer, on a sync.WaitGroup field of T that some method of T calls Wait
// on: the owner of long-lived workers joins them in its stop method, on the
// WaitGroup their exit releases. A wait on any other field (a per-dispatch
// barrier, say) does not join the workers. A worker that outlives its
// launcher in the solver or measurement path races the next sweep's writes,
// which is precisely the class of corruption `go test -race` only catches
// when the schedule cooperates; statically requiring a visible join makes
// the discipline unconditional.
var GoroLeak = &Analyzer{
	Name: "goroleak",
	Doc:  "flag go statements joined neither in the enclosing function nor by an owner method waiting on the WaitGroup field the launched method Dones in a defer (concurrency-heavy internal packages)",
	Run:  runGoroLeak,
}

// goroLeakPackages are the package directories the pass polices.
var goroLeakPackages = []string{"internal/synergy", "internal/cronos", "internal/ml", "internal/cluster", "internal/faults", "internal/parallel", "internal/obs", "internal/sched", "internal/serve", "internal/ligen"}

func runGoroLeak(pass *Pass) {
	policed := false
	for _, dir := range goroLeakPackages {
		if pass.Dir == dir || strings.HasSuffix(pass.ImportPath, "/"+dir) {
			policed = true
			break
		}
	}
	if !policed {
		return
	}
	joined := ownerJoinedMethods(pass)
	for _, f := range pass.Files {
		for _, fn := range enclosingFuncs(f) {
			checkGoroLeakFunc(pass, fn, joined)
		}
	}
}

// checkGoroLeakFunc inspects one function body, ignoring nested function
// literals (their go statements are charged to the literal itself).
func checkGoroLeakFunc(pass *Pass, fn funcNode, ownerJoined map[*types.Func]bool) {
	var launches []*ast.GoStmt
	joined := false
	walkShallow(fn.body, func(n ast.Node) {
		switch x := n.(type) {
		case *ast.GoStmt:
			if sel, ok := unparen(x.Call.Fun).(*ast.SelectorExpr); !ok || !ownerJoined[selectedMethod(pass, sel)] {
				launches = append(launches, x)
			}
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
				joined = true
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				joined = true // channel receive
			}
		case *ast.RangeStmt:
			if isChanExpr(pass, x.X) {
				joined = true // draining a channel
			}
		}
	})
	if joined {
		return
	}
	for _, g := range launches {
		pass.Reportf(g.Pos(), "goroutine launched in %s with no WaitGroup Wait or channel join in the enclosing function, and no owner method waiting on the WaitGroup field it Dones in a defer", fn.name)
	}
}

// ownerJoinedMethods returns the methods m of the package's types T that an
// owner joins: m calls Done, in a defer, on a sync.WaitGroup field of T that
// some method of T calls Wait on.
func ownerJoinedMethods(pass *Pass) map[*types.Func]bool {
	type release struct {
		m *types.Func
		f *types.Var
	}
	var releases []release
	waited := map[*types.Var]bool{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			m, _ := pass.Info.Defs[fd.Name].(*types.Func)
			recv := ownerOf(pass.TypeOf(fd.Recv.List[0].Type))
			if m == nil || recv == nil {
				continue
			}
			walkShallow(fd.Body, func(n ast.Node) {
				switch x := n.(type) {
				case *ast.DeferStmt:
					if wg := waitGroupFieldCall(pass, x.Call, "Done", recv); wg != nil {
						releases = append(releases, release{m, wg})
					}
				case *ast.CallExpr:
					if wg := waitGroupFieldCall(pass, x, "Wait", recv); wg != nil {
						waited[wg] = true
					}
				}
			})
		}
	}
	joined := map[*types.Func]bool{}
	for _, r := range releases {
		if waited[r.f] {
			joined[r.m] = true
		}
	}
	return joined
}

// waitGroupFieldCall returns F when call is x.F.method() with F a
// sync.WaitGroup field of the type recv, else nil.
func waitGroupFieldCall(pass *Pass, call *ast.CallExpr, method string, recv *types.TypeName) *types.Var {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return nil
	}
	field, ok := unparen(sel.X).(*ast.SelectorExpr)
	if !ok || selectionOwner(pass, field, types.FieldVal) != recv ||
		types.TypeString(pass.TypeOf(field), nil) != "sync.WaitGroup" {
		return nil
	}
	v, _ := pass.Info.Selections[field].Obj().(*types.Var)
	if v == nil {
		return nil
	}
	return v.Origin()
}

// selectedMethod returns the method sel selects as a method value, or nil.
func selectedMethod(pass *Pass, sel *ast.SelectorExpr) *types.Func {
	if s := pass.Info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
		if m, ok := s.Obj().(*types.Func); ok {
			return m.Origin()
		}
	}
	return nil
}

// selectionOwner returns the named receiver type of sel when it selects a
// member of the given kind (a field or a method value), else nil.
func selectionOwner(pass *Pass, sel *ast.SelectorExpr, kind types.SelectionKind) *types.TypeName {
	if s := pass.Info.Selections[sel]; s != nil && s.Kind() == kind {
		return ownerOf(s.Recv())
	}
	return nil
}

// ownerOf returns the named type of t, through one pointer, or nil.
func ownerOf(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

func isChanExpr(pass *Pass, e ast.Expr) bool {
	t := pass.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// walkShallow visits every node of body except the bodies of nested function
// literals.
func walkShallow(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}
