package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SharedWrite polices the one memory rule of the parallel engine: a task
// closure handed to parallel.ForEach/parallel.Map/parallel.ForEachChunked or
// to a parallel.Gang's Run may only write shared state through a per-task
// slot — an element of a captured slice indexed by (an expression derived
// from) the task index, chunk-bound or slab parameters. Any other write to
// captured state — a plain assignment, a compound assignment or ++/--, an
// append, a map store, a write through a captured pointer — is either a
// data race outright or a schedule-ordered accumulation that breaks the
// byte-identical-for-every--j contract. Atomic counters are method or
// function calls, not assignments, so the deliberately sanctioned
// obs-counter pattern stays silent by construction.
var SharedWrite = &Analyzer{
	Name: "sharedwrite",
	Doc:  "flag pool task closures that write captured state without index-disjoint partitioning or atomics",
	Run:  runSharedWrite,
}

func runSharedWrite(pass *Pass) {
	inspect(pass, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		lit, idxParams := poolClosure(pass, call)
		if lit == nil || pass.IsTestFile(lit.Pos()) {
			return true
		}
		checkTaskWrites(pass, lit, idxParams)
		return true
	})
}

func checkTaskWrites(pass *Pass, lit *ast.FuncLit, idxParams []types.Object) {
	var taint taintSet
	if len(idxParams) > 0 {
		taint = localTaint(pass, lit.Body, idxParams)
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				checkWriteTarget(pass, lit, taint, lhs, x.Pos())
			}
		case *ast.IncDecStmt:
			checkWriteTarget(pass, lit, taint, x.X, x.Pos())
		}
		return true
	})
}

// checkWriteTarget flags a write to target when its base object is captured
// from outside the closure and the write is not index-disjoint.
func checkWriteTarget(pass *Pass, lit *ast.FuncLit, taint taintSet, target ast.Expr, pos token.Pos) {
	captured, obj := capturedObject(pass, target, lit.Pos(), lit.End())
	if !captured {
		return
	}
	switch t := unparen(target).(type) {
	case *ast.Ident:
		pass.Reportf(pos, "parallel task assigns captured %s; shared scalars serialize on the schedule — write to a per-task slot instead", obj.Name())
	case *ast.StarExpr:
		pass.Reportf(pos, "parallel task writes through captured pointer %s; partition the output per task instead", obj.Name())
	case *ast.IndexExpr:
		if bt := pass.TypeOf(baseOfIndexChain(t)); bt != nil {
			if _, isMap := bt.Underlying().(*types.Map); isMap {
				pass.Reportf(pos, "parallel task stores into captured map %s; concurrent map writes race — collect per task and merge in task order", obj.Name())
				return
			}
		}
		if !indexChainMentions(pass, t, taint) {
			pass.Reportf(pos, "parallel task writes captured %s at an index not derived from the task index; overlapping tasks race — partition by task index", obj.Name())
		}
	case *ast.SelectorExpr:
		pass.Reportf(pos, "parallel task writes field of captured %s; shared struct state is schedule-ordered — use a per-task slot", obj.Name())
	}
}

// baseOfIndexChain unwraps nested index expressions to the indexed base:
// out[wi][fi] -> out.
func baseOfIndexChain(e *ast.IndexExpr) ast.Expr {
	var x ast.Expr = e
	for {
		ie, ok := unparen(x).(*ast.IndexExpr)
		if !ok {
			return x
		}
		x = ie.X
	}
}

// indexChainMentions reports whether any index in the chain references a
// task-index-derived object: out[i], out[wi][fi] with wi,fi := ti/nf, ti%nf.
func indexChainMentions(pass *Pass, e *ast.IndexExpr, taint taintSet) bool {
	if taint == nil {
		return false
	}
	var x ast.Expr = e
	for {
		ie, ok := unparen(x).(*ast.IndexExpr)
		if !ok {
			return false
		}
		if exprMentions(pass, ie.Index, taint) {
			return true
		}
		x = ie.X
	}
}
