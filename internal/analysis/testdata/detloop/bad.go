// Seeded detloop violations: results emitted from inside range-over-map —
// directly, through an io.Writer, laundered through a render helper, inside
// a closure handed to a generic function, from a method of a generic type
// and through a method value — land in the output in randomized map order.
package fixture

import (
	"fmt"
	"io"
)

func printPlan(w io.Writer, plan map[string]int) {
	for k, mhz := range plan {
		fmt.Fprintf(w, "%s -> %d MHz\n", k, mhz) // map-ordered print
	}
}

func writeRaw(w io.Writer, rows map[string][]byte) {
	for _, row := range rows {
		w.Write(row) // map-ordered io.Writer write
	}
}

func renderAll(w io.Writer, series map[string][]float64) {
	for name, ys := range series {
		renderSeries(w, name, ys) // helper reaches fmt.Fprintf transitively
	}
}

func renderSeries(w io.Writer, name string, ys []float64) {
	fmt.Fprintf(w, "== %s ==\n", name)
	for _, y := range ys {
		fmt.Fprintf(w, "%.4f\n", y)
	}
}

// forEach hands each element to fn: a generic function running a closure.
func forEach[T any](xs []T, fn func(T)) {
	for _, x := range xs {
		fn(x)
	}
}

func printTags(w io.Writer, tags []string) {
	forEach(tags, func(tag string) { fmt.Fprintln(w, tag) })
}

func tagAll(w io.Writer, groups map[string][]string) {
	for _, tags := range groups {
		printTags(w, tags) // helper prints inside a closure it hands to forEach
	}
}

type printer[T any] struct{ w io.Writer }

func (p *printer[T]) row(k string, v T) { fmt.Fprintf(p.w, "%s=%v\n", k, v) }

func printCounts(w io.Writer, counts map[string]int) {
	p := &printer[int]{w: w}
	for k, v := range counts {
		p.row(k, v) // method of an instantiated generic type
	}
}

type table struct{ w io.Writer }

func (t table) row(k string, v float64) { fmt.Fprintf(t.w, "%s %.3f\n", k, v) }

func printTable(t table, cells map[string]float64) {
	emit := t.row
	for k, v := range cells {
		emit(k, v) // method value called through a variable
	}
}
