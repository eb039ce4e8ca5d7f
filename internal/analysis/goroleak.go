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
// the statement launches a method of a type T that has a method calling Wait
// on a sync.WaitGroup field of T: the owner of long-lived workers joins them
// in its stop method. A worker that outlives its launcher in the solver or
// measurement path races the next sweep's writes, which is precisely the
// class of corruption `go test -race` only catches when the schedule
// cooperates; statically requiring a visible join makes the discipline
// unconditional.
var GoroLeak = &Analyzer{
	Name: "goroleak",
	Doc:  "flag go statements joined neither in the enclosing function nor by an owner method waiting on a WaitGroup field (concurrency-heavy internal packages)",
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
	owners := joiningOwners(pass)
	for _, f := range pass.Files {
		for _, fn := range enclosingFuncs(f) {
			checkGoroLeakFunc(pass, fn, owners)
		}
	}
}

// checkGoroLeakFunc inspects one function body, ignoring nested function
// literals (their go statements are charged to the literal itself).
func checkGoroLeakFunc(pass *Pass, fn funcNode, owners map[*types.TypeName]bool) {
	var launches []*ast.GoStmt
	joined := false
	walkShallow(fn.body, func(n ast.Node) {
		switch x := n.(type) {
		case *ast.GoStmt:
			if sel, ok := unparen(x.Call.Fun).(*ast.SelectorExpr); !ok || !owners[selectionOwner(pass, sel, types.MethodVal)] {
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
		pass.Reportf(g.Pos(), "goroutine launched in %s with no WaitGroup Wait or channel join in the enclosing function, and no owner method waiting on a WaitGroup field", fn.name)
	}
}

// joiningOwners returns the package's types T with a method that calls Wait
// on a sync.WaitGroup field of T.
func joiningOwners(pass *Pass) map[*types.TypeName]bool {
	owners := map[*types.TypeName]bool{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			recv := ownerOf(pass.TypeOf(fd.Recv.List[0].Type))
			walkShallow(fd.Body, func(n ast.Node) {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return
				}
				wait, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || wait.Sel.Name != "Wait" {
					return
				}
				field, ok := unparen(wait.X).(*ast.SelectorExpr)
				if ok && recv != nil && selectionOwner(pass, field, types.FieldVal) == recv &&
					types.TypeString(pass.TypeOf(field), nil) == "sync.WaitGroup" {
					owners[recv] = true
				}
			})
		}
	}
	return owners
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
