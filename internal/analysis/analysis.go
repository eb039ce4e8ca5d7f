// Package analysis is a stdlib-only static-analysis framework encoding the
// repository's domain invariants: dimensioned quantities stay dimensionally
// consistent, randomness flows through the seeded xrand streams, map
// iteration never feeds nondeterministic orderings into model training,
// goroutines launched in the hot packages are always joined, and every
// function is reached by some program.
//
// The framework deliberately avoids golang.org/x/tools: packages are
// discovered by walking the module tree (skipping testdata, vendor and
// hidden directories), parsed with go/parser, and type-checked with go/types
// through a recursive in-module importer (stdlib imports resolve through the
// source importer). Each Analyzer receives a fully parsed and — when
// type-checking succeeds — typed package and reports Diagnostics; the Runner
// aggregates, suppresses (`//dsalint:ignore <pass>`), and orders them.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding of one pass.
type Diagnostic struct {
	Pass    string         `json:"pass"`
	Pos     token.Position `json:"-"`
	File    string         `json:"file"`
	Line    int            `json:"line"`
	Col     int            `json:"col"`
	Message string         `json:"message"`
}

// String renders the finding in the canonical file:line:col: [pass] message
// form the driver prints.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Pass, d.Message)
}

// Pass is the per-package context handed to each Analyzer run.
type Pass struct {
	// Fset positions every AST node of the package.
	Fset *token.FileSet
	// Files are the parsed files of the package (tests included).
	Files []*ast.File
	// Dir is the package directory relative to the module root, "" for the
	// root package itself.
	Dir string
	// ImportPath is the package's import path within the module.
	ImportPath string
	// Info carries type-checking results. It is always non-nil, but entries
	// may be missing for code the checker could not resolve; passes must
	// treat absent types as "unknown", not as a match.
	Info *types.Info
	// Prog is the whole-module call graph built once per Runner.Run and
	// shared by every pass; interprocedural passes reach through it, local
	// passes ignore it. Nil only when a pass is run outside a Runner.
	Prog *Program

	analyzer string
	diags    *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Pass:    p.analyzer,
		Pos:     position,
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil when type information is unavailable.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// IsTestFile reports whether the file containing pos is a _test.go file.
func (p *Pass) IsTestFile(pos token.Pos) bool { return isTestFile(p.Fset, pos) }

func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// Analyzer is one named pass.
type Analyzer struct {
	// Name is the pass identifier used in output, -disable flags and
	// //dsalint:ignore directives.
	Name string
	// Doc is a one-line description shown by the driver's usage text.
	Doc string
	// Run inspects one package and reports findings through pass.Reportf.
	Run func(pass *Pass)
}

// All returns the full built-in pass suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		UnitCheck,
		FloatEq,
		RandSource,
		MapOrder,
		GoroLeak,
		DeadAssign,
		SortSlice,
		ForkAbsorb,
		WallClock,
		DetLoop,
		SharedWrite,
		FloatAcc,
		Unreachable,
	}
}

// sortDiagnostics orders findings by file, line, column, pass and finally
// message, making output stable across runs and map-iteration orders.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Pass != b.Pass {
			return a.Pass < b.Pass
		}
		return a.Message < b.Message
	})
}
