// A seeded sortslice violation in the advisory path's front computation,
// policed like the other hot packages.
package pareto

import "sort"

func rankFront(xs []float64) {
	sort.Slice(xs, func(a, b int) bool { return xs[a] > xs[b] })
}
