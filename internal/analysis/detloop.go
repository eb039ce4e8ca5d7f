package analysis

import (
	"go/ast"
	"strings"
)

// DetLoop is the interprocedural upgrade of maporder: where maporder flags
// slice accumulation in map iteration order, DetLoop follows the output
// itself. Anything *emitted* from inside a `range` over a map — a direct
// fmt.Fprint*/fmt.Print* call, an io.Writer write, or a call to an
// in-module function that transitively reaches such a sink — lands in the
// stream in map iteration order, which Go randomizes per run. Every results
// file in this repository is byte-compared across runs and -j values, so a
// single map-ordered print is a reproduction break. The fix is always the
// same standing idiom: collect the keys, sort them, range over the sorted
// slice.
var DetLoop = &Analyzer{
	Name: "detloop",
	Doc:  "flag output emitted (directly or through function calls) inside range-over-map, where emission order is random",
	Run:  runDetLoop,
}

// sinkLeaves are the stdlib emission points. Interface writes resolve to
// (io.Writer).Write through the call graph's interface expansion, so writing
// to any w io.Writer matches without enumerating concrete types.
var sinkLeaves = map[string]bool{
	"fmt.Fprint":        true,
	"fmt.Fprintf":       true,
	"fmt.Fprintln":      true,
	"fmt.Print":         true,
	"fmt.Printf":        true,
	"fmt.Println":       true,
	"io.WriteString":    true,
	"(io.Writer).Write": true,
}

// isSinkLeaf matches the leaves plus Write* methods on io's extended
// writer interfaces (StringWriter, ByteWriter, ...).
func isSinkLeaf(n *FuncNode) bool {
	name := n.FullName()
	if sinkLeaves[name] {
		return true
	}
	return strings.HasPrefix(name, "(io.") && strings.Contains(name, ").Write")
}

func runDetLoop(pass *Pass) {
	prog := pass.Prog
	if prog == nil {
		return
	}
	reached := prog.Reaches(isSinkLeaf, nil)

	inspect(pass, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if t := pass.TypeOf(rng.X); t == nil || !isMapType(t) {
			return true
		}
		if pass.IsTestFile(rng.Pos()) {
			return true
		}
		ast.Inspect(rng.Body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, target := range prog.CalleesAt(call) {
				switch {
				case isSinkLeaf(target):
					pass.Reportf(call.Pos(), "output written inside range over map; emission order is random — iterate sorted keys")
					return true
				case reached[target] && !target.External():
					pass.Reportf(call.Pos(), "call to %s emits output inside range over map; emission order is random — iterate sorted keys", target.Name)
					return true
				}
			}
			return true
		})
		return true
	})
}
