package analysis

import (
	"go/ast"
	"strings"
)

// SortSlice flags sort.Slice and sort.SliceStable calls in the
// performance-critical packages (internal/ml, internal/gpusim,
// internal/synergy, internal/serve, internal/pareto, internal/core). Both
// route every comparison and swap through reflection, which dominated the
// CART trainer's profile before the pre-sorted rewrite; hot paths should
// use slices.Sort/slices.SortFunc or a presorted index structure instead.
// Cold call sites (one-off result rankings and the like) document
// themselves with //dsalint:ignore sortslice.
var SortSlice = &Analyzer{
	Name: "sortslice",
	Doc:  "flag reflection-based sort.Slice/sort.SliceStable in hot packages (ml, gpusim, synergy, serve, pareto, core)",
	Run:  runSortSlice,
}

// sortSlicePackages are the package directories the pass polices.
var sortSlicePackages = []string{"internal/ml", "internal/gpusim", "internal/synergy", "internal/serve", "internal/pareto", "internal/core"}

func runSortSlice(pass *Pass) {
	policed := false
	for _, dir := range sortSlicePackages {
		if pass.Dir == dir || strings.HasSuffix(pass.ImportPath, "/"+dir) {
			policed = true
			break
		}
	}
	if !policed {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok || pkg.Name != "sort" {
				return true
			}
			if name := sel.Sel.Name; name == "Slice" || name == "SliceStable" {
				if pass.IsTestFile(call.Pos()) {
					return true
				}
				pass.Reportf(call.Pos(),
					"reflection-based sort.%s in a hot package; use slices.SortFunc or a presorted index (//dsalint:ignore sortslice for cold paths)",
					name)
			}
			return true
		})
	}
}
