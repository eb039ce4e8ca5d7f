// Packages outside the policed hot-package list are not policed: the same
// reflection-based sort stays quiet here.
package other

import "sort"

func rankAnywhere(xs []float64) {
	sort.Slice(xs, func(a, b int) bool { return xs[a] < xs[b] })
}
