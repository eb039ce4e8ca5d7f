package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the small dataflow layer shared by the interprocedural
// determinism passes. Two analyses cover what those passes need:
//
//   - Reaches: a whole-program backward closure over the call graph —
//     "which functions can transitively call something matching pred?" —
//     used by wallclock (reaches time.Now) and detloop (reaches an output
//     sink). A quarantine predicate cuts propagation, which is how the
//     internal/obs profiling hooks stay exempt without a hole in the
//     analysis: obs functions neither seed nor forward taint.
//
//   - localTaint: a forward, flow-insensitive fixpoint over one function
//     body — "which locals are (transitively) derived from these seed
//     objects?" — used by sharedwrite and forkabsorb to decide whether an
//     index expression or a receiver is derived from a pool task's index
//     parameter (index-disjoint writes and per-task streams are the two
//     sanctioned ways to touch shared state from a worker).

// Reaches returns the set of functions from which some call chain reaches a
// node satisfying pred. Nodes satisfying quarantine (nil = none) are removed
// from the graph entirely: they neither count as sources nor propagate
// reachability to their callers.
func (p *Program) Reaches(pred func(*FuncNode) bool, quarantine func(*FuncNode) bool) map[*FuncNode]bool {
	inQuarantine := func(n *FuncNode) bool { return quarantine != nil && quarantine(n) }
	reached := map[*FuncNode]bool{}
	var work []*FuncNode
	mark := func(n *FuncNode) {
		if !reached[n] && !inQuarantine(n) {
			reached[n] = true
			work = append(work, n)
		}
	}
	// Seed: every node (with or without a body) matching pred. Externals
	// only exist once an edge references them, so walking the caller index
	// covers them all.
	for _, n := range p.Funcs {
		if pred(n) {
			mark(n)
		}
	}
	for n := range p.callers {
		if n.External() && pred(n) {
			mark(n)
		}
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		for _, e := range p.callers[n] {
			mark(e.Caller)
		}
	}
	return reached
}

// taintSet tracks the objects a local forward propagation has marked.
type taintSet map[types.Object]bool

// localTaint computes, within body, the set of objects transitively assigned
// from the seed objects. Propagation follows plain and short-variable
// assignments, including multi-value forms: any LHS object whose RHS
// mentions a tainted object becomes tainted. The fixpoint iterates until no
// assignment adds a new object, so chains like wi, fi := ti/nf, ti%nf taint
// wi and fi from ti in one call.
func localTaint(pass *Pass, body ast.Node, seeds []types.Object) taintSet {
	tainted := taintSet{}
	for _, s := range seeds {
		if s != nil {
			tainted[s] = true
		}
	}
	for {
		grew := false
		ast.Inspect(body, func(n ast.Node) bool {
			asg, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			// Multi-value RHS (one call) taints every LHS; otherwise pair up.
			if len(asg.Rhs) == 1 && len(asg.Lhs) > 1 {
				if exprMentions(pass, asg.Rhs[0], tainted) {
					for _, lhs := range asg.Lhs {
						grew = taintLHS(pass, lhs, tainted) || grew
					}
				}
				return true
			}
			for i, rhs := range asg.Rhs {
				if i < len(asg.Lhs) && exprMentions(pass, rhs, tainted) {
					grew = taintLHS(pass, asg.Lhs[i], tainted) || grew
				}
			}
			return true
		})
		if !grew {
			return tainted
		}
	}
}

// taintLHS marks the object behind an assignment target; reports growth.
func taintLHS(pass *Pass, lhs ast.Expr, tainted taintSet) bool {
	obj := identObject(pass, lhs)
	if obj == nil || tainted[obj] {
		return false
	}
	tainted[obj] = true
	return true
}

// exprMentions reports whether e references any tainted object.
func exprMentions(pass *Pass, e ast.Expr, tainted taintSet) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || found {
			return !found
		}
		if obj := useOrDef(pass, id); obj != nil && tainted[obj] {
			found = true
		}
		return !found
	})
	return found
}

func useOrDef(pass *Pass, id *ast.Ident) types.Object {
	if pass.Info == nil {
		return nil
	}
	if obj, ok := pass.Info.Uses[id]; ok {
		return obj
	}
	return pass.Info.Defs[id]
}

// capturedObject resolves e to the object of its base identifier and reports
// whether that object is declared outside the [lo, hi) range — i.e. captured
// by a closure spanning that range rather than local to it. The second
// result is the object itself (nil when unresolvable).
func capturedObject(pass *Pass, e ast.Expr, lo, hi token.Pos) (bool, types.Object) {
	obj := identObject(pass, baseExpr(e))
	if obj == nil || obj.Pos() == token.NoPos {
		return false, nil
	}
	if obj.Pos() >= lo && obj.Pos() < hi {
		return false, obj
	}
	// Package-level and outer-scope objects are captured state; exclude
	// universe objects (nil, append, ...) which have no position anyway.
	if _, isVar := obj.(*types.Var); !isVar {
		return false, obj
	}
	return true, obj
}

// baseExpr strips index, slice, selector, star and paren layers down to the
// base expression: out[i][j] -> out, (*p).f -> p.
func baseExpr(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return e
		}
	}
}
