package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ForkAbsorb machine-checks the fork/absorb discipline the parallel engine
// is built on. Two contracts:
//
//  1. Pairing: a fan-out that derives per-task children (Observer.ForkN,
//     Trace.Fork, DeviceInjector.Fork — any in-module method named Fork or
//     ForkN whose receiver type also has an Absorb/AbsorbAll counterpart)
//     must be absorbed back in task order on the success path: the absorb
//     call must be a sibling statement of the fork (or deferred), not
//     buried in one branch of a conditional. Error paths deliberately skip
//     absorption (absorb-nothing-on-error keeps the parent untouched), so
//     early returns between fork and absorb are fine; what is not fine is
//     an absorb that only happens when some condition holds. Results that
//     escape — returned, stored in a composite, or handed whole to another
//     function — transfer the obligation to the consumer and are exempt.
//
//  2. Pre-split: deriving a stream inside a parallel task (Split/SplitN/
//     Fork/ForkN on a receiver captured from outside a pool closure or go
//     statement) makes the derivation order follow the schedule, which is
//     exactly what the pre-split-in-task-order idiom exists to prevent.
//     Receivers that are task-local — indexed or derived from the task's
//     index parameter — are the sanctioned pattern and stay silent.
var ForkAbsorb = &Analyzer{
	Name: "forkabsorb",
	Doc:  "flag fork fan-outs that are never absorbed in order, and forks made inside parallel tasks on shared receivers",
	Run:  runForkAbsorb,
}

var forkMethodNames = map[string]bool{"Fork": true, "ForkN": true, "Split": true, "SplitN": true}

func runForkAbsorb(pass *Pass) {
	if pass.Prog == nil {
		return
	}
	for _, n := range pass.Prog.Funcs {
		if n.Pkg == nil || n.Pkg.ImportPath != pass.ImportPath || pass.IsTestFile(n.Body.Pos()) {
			continue
		}
		// Literals are checked through their enclosing declaration (the
		// pairing scan must see absorbs in the outer body), and through the
		// pool-closure scan below.
		if _, ok := n.Decl.(*ast.FuncDecl); ok {
			checkForkPairing(pass, n.Body)
		}
	}
	checkInTaskForks(pass)
}

// forkSite is one fan-out assignment awaiting an absorb.
type forkSite struct {
	obj    types.Object // the variable holding the fork result
	method string       // Fork or ForkN
	pos    token.Pos
	block  ast.Node // innermost block-like container of the statement
}

// checkForkPairing enforces contract 1 over one declared function body,
// nested literals included (a helper closure may legally absorb for its
// encloser, and sibling analysis still applies within the literal).
func checkForkPairing(pass *Pass, body *ast.BlockStmt) {
	blocks := blockOf(body)

	var forks []forkSite
	absorbBlocks := map[types.Object][]ast.Node{} // absorb arg -> containers (nil = deferred)
	escaped := map[types.Object]bool{}

	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range x.Rhs {
				call, ok := unparen(rhs).(*ast.CallExpr)
				if !ok || i >= len(x.Lhs) {
					continue
				}
				name, recv := forkCall(pass, call)
				if name != "Fork" && name != "ForkN" {
					continue
				}
				if !hasAbsorbCounterpart(recv, name) {
					continue
				}
				obj := identObject(pass, x.Lhs[i])
				if obj == nil {
					continue
				}
				forks = append(forks, forkSite{obj: obj, method: name, pos: x.Pos(), block: blocks[x]})
			}
		case *ast.CallExpr:
			if name := absorbName(x); name != "" {
				for _, arg := range x.Args {
					if obj := identObject(pass, unparen(arg)); obj != nil {
						absorbBlocks[obj] = append(absorbBlocks[obj], blocks[x])
					}
				}
				return true
			}
			// A fork result passed whole to any other call escapes: the
			// callee owns the absorb obligation now.
			for _, arg := range x.Args {
				if obj := identObject(pass, unparen(arg)); obj != nil {
					escaped[obj] = true
				}
			}
		case *ast.DeferStmt:
			if name := absorbName(x.Call); name != "" {
				for _, arg := range x.Call.Args {
					if obj := identObject(pass, unparen(arg)); obj != nil {
						absorbBlocks[obj] = append(absorbBlocks[obj], nil)
					}
				}
			}
		case *ast.ReturnStmt:
			for _, res := range x.Results {
				markWholeUses(pass, res, escaped)
			}
		case *ast.CompositeLit:
			for _, elt := range x.Elts {
				markWholeUses(pass, elt, escaped)
			}
		}
		return true
	})

	for _, f := range forks {
		if escaped[f.obj] {
			continue
		}
		absorbs, ok := absorbBlocks[f.obj]
		if !ok {
			pass.Reportf(f.pos, "%s result %s is never absorbed; fan-outs must be folded back in task order (AbsorbAll/Absorb) or handed off whole", f.method, f.obj.Name())
			continue
		}
		onAllPaths := false
		for _, b := range absorbs {
			if b == nil || b == f.block {
				onAllPaths = true
				break
			}
		}
		if !onAllPaths {
			pass.Reportf(f.pos, "%s result %s is absorbed only inside a conditional; absorb must be a sibling of the fork (or deferred) so every success path folds the children back", f.method, f.obj.Name())
		}
	}
}

// checkInTaskForks enforces contract 2: fan-out calls on schedule-shared
// receivers inside pool closures and go statements.
func checkInTaskForks(pass *Pass) {
	inspect(pass, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if lit, idx := poolClosure(pass, x); lit != nil {
				checkTaskBody(pass, lit, idx)
			}
		case *ast.GoStmt:
			if lit, ok := unparen(x.Call.Fun).(*ast.FuncLit); ok {
				checkTaskBody(pass, lit, nil)
			}
		}
		return true
	})
}

// checkTaskBody flags fan-out calls on captured, non-task-derived receivers
// within one task closure. idxParams holds the engine-supplied index
// parameter objects (empty for plain go statements, which have no sanctioned
// index).
func checkTaskBody(pass *Pass, lit *ast.FuncLit, idxParams []types.Object) {
	if pass.IsTestFile(lit.Pos()) {
		return
	}
	var taint taintSet
	if len(idxParams) > 0 {
		taint = localTaint(pass, lit.Body, idxParams)
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, _ := forkCall(pass, call)
		if name == "" {
			return true
		}
		sel := call.Fun.(*ast.SelectorExpr)
		captured, obj := capturedObject(pass, sel.X, lit.Pos(), lit.End())
		if !captured {
			return true
		}
		if taint != nil && exprMentions(pass, sel.X, taint) {
			return true // task-local stream: rngs[i].Split() and friends
		}
		pass.Reportf(call.Pos(), "%s on shared %s inside a parallel task; derivation order follows the schedule — pre-split in task order before the pool", name, obj.Name())
		return true
	})
}

// forkCall returns the fan-out method name and receiver type when call is a
// Fork/ForkN/Split/SplitN method call on an in-module type, else ("", nil).
func forkCall(pass *Pass, call *ast.CallExpr) (string, types.Type) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !forkMethodNames[sel.Sel.Name] {
		return "", nil
	}
	obj, ok := useOrDef(pass, sel.Sel).(*types.Func)
	if !ok || obj.Pkg() == nil {
		return "", nil
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", nil
	}
	mod := pass.ModulePathOf()
	path := obj.Pkg().Path()
	if path != mod && !strings.HasPrefix(path, mod+"/") {
		return "", nil
	}
	return sel.Sel.Name, sig.Recv().Type()
}

// hasAbsorbCounterpart reports whether the receiver type of a Fork/ForkN
// method also offers the matching Absorb/AbsorbAll, which is what makes the
// pairing contract apply (types without an absorb API — xrand.Rand,
// gpusim.Device — hand the obligation to container-level absorb helpers).
func hasAbsorbCounterpart(recv types.Type, forkName string) bool {
	want := "Absorb"
	if forkName == "ForkN" {
		want = "AbsorbAll"
	}
	if recv == nil {
		return false
	}
	if _, ok := recv.(*types.Pointer); !ok {
		recv = types.NewPointer(recv)
	}
	ms := types.NewMethodSet(recv)
	for i := 0; i < ms.Len(); i++ {
		if ms.At(i).Obj().Name() == want {
			return true
		}
	}
	return false
}

// absorbName returns "Absorb"/"AbsorbAll" when call is such a method call.
func absorbName(call *ast.CallExpr) string {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if sel.Sel.Name == "Absorb" || sel.Sel.Name == "AbsorbAll" {
			return sel.Sel.Name
		}
	}
	return ""
}

// markWholeUses marks every bare identifier mentioned in e as escaped.
func markWholeUses(pass *Pass, e ast.Expr, escaped map[types.Object]bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := useOrDef(pass, id); obj != nil {
				escaped[obj] = true
			}
		}
		return true
	})
}

// poolEntrypoints are the parallel-engine calls that hand a task closure its
// partitioning keys: ForEach/Map pass one task index, ForEachChunked passes a
// [lo, hi) index range, and the Gang's Run passes a slab number and its
// [lo, hi) range.
var poolEntrypoints = map[string]bool{"ForEach": true, "Map": true, "ForEachChunked": true, "Run": true}

// poolClosure returns the task closure and its engine-supplied index
// parameter objects when call is parallel.ForEach, parallel.Map,
// parallel.ForEachChunked or (*parallel.Gang).Run with a literal task
// function.
func poolClosure(pass *Pass, call *ast.CallExpr) (*ast.FuncLit, []types.Object) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !poolEntrypoints[sel.Sel.Name] {
		return nil, nil
	}
	obj, ok := useOrDef(pass, sel.Sel).(*types.Func)
	if !ok || obj.Pkg() == nil || obj.Pkg().Name() != "parallel" {
		return nil, nil
	}
	if len(call.Args) == 0 {
		return nil, nil
	}
	lit, ok := unparen(call.Args[len(call.Args)-1]).(*ast.FuncLit)
	if !ok {
		return nil, nil
	}
	return lit, taskIndexParams(pass, lit)
}

// taskIndexParams resolves the partitioning-key parameters of a pool task
// closure to their objects: every integer parameter is engine-supplied — the
// task index of ForEach/Map, the lo/hi range bounds of ForEachChunked, or the
// slab number and bounds of Gang.Run (the context parameter, when present, is
// not an integer and stays out).
func taskIndexParams(pass *Pass, lit *ast.FuncLit) []types.Object {
	params := lit.Type.Params
	if params == nil || pass.Info == nil {
		return nil
	}
	var objs []types.Object
	for _, field := range params.List {
		for _, name := range field.Names {
			obj := pass.Info.Defs[name]
			if obj == nil || obj.Type() == nil {
				continue
			}
			if basic, ok := obj.Type().Underlying().(*types.Basic); ok && basic.Info()&types.IsInteger != 0 {
				objs = append(objs, obj)
			}
		}
	}
	return objs
}

// ModulePathOf returns the module path of the analyzed tree, derived from
// the loader via the package metadata.
func (p *Pass) ModulePathOf() string {
	if p.Prog != nil && p.Prog.ModulePath != "" {
		return p.Prog.ModulePath
	}
	// Fallback: strip the package dir suffix from the import path.
	if p.Dir == "." || p.Dir == "" {
		return p.ImportPath
	}
	return strings.TrimSuffix(p.ImportPath, "/"+p.Dir)
}

// blockOf maps every statement-bearing node under root to its innermost
// enclosing block-like container (BlockStmt, CaseClause, CommClause). Used
// for sibling analysis: two statements with the same container are on the
// same straight-line path.
func blockOf(root ast.Node) map[ast.Node]ast.Node {
	out := map[ast.Node]ast.Node{}
	var stack []ast.Node // ancestor chain; ast.Inspect signals pops with nil
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		for i := len(stack) - 1; i >= 0; i-- {
			if isBlockLike(stack[i]) {
				out[n] = stack[i]
				break
			}
		}
		stack = append(stack, n)
		return true
	})
	return out
}

func isBlockLike(n ast.Node) bool {
	switch n.(type) {
	case *ast.BlockStmt, *ast.CaseClause, *ast.CommClause:
		return true
	}
	return false
}
