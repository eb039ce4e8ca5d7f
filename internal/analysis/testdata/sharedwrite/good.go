// Clean counterparts: per-task slots keyed by the task index (directly or
// through derived coordinates) or by the gang's slab number, and task-local
// state.
package fixture

import "fixture/sharedwrite/internal/parallel"

func perTaskSlot(xs []float64) ([]float64, error) {
	out := make([]float64, len(xs))
	err := parallel.ForEach(len(xs), 4, func(i int) error {
		out[i] = xs[i] * 2 // index-disjoint: each task owns slot i
		return nil
	})
	return out, err
}

func derivedCoordinates(grid [][]float64, cols int) error {
	return parallel.ForEach(len(grid)*cols, 4, func(ti int) error {
		row, col := ti/cols, ti%cols
		grid[row][col] = float64(ti) // coordinates derived from the task index
		return nil
	})
}

func taskLocalState(xs []float64) ([]float64, error) {
	return parallel.Map(len(xs), 4, func(i int) (float64, error) {
		acc := 0.0 // local accumulator: private to the task
		for _, v := range xs[:i] {
			acc += v
		}
		return acc, nil
	})
}

func chunkedSlots(xs []float64) ([]float64, error) {
	out := make([]float64, len(xs))
	err := parallel.ForEachChunked(len(xs), 4, 8, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			out[i] = xs[i] * 2 // chunk-disjoint: each chunk owns [lo, hi)
		}
		return nil
	})
	return out, err
}

func gangSlabSlots(g *parallel.Gang, xs, parts []float64) {
	g.Run(len(xs), func(slab, lo, hi int) {
		for i := lo; i < hi; i++ {
			parts[slab] += xs[i] // each slab owns slot slab
		}
	})
}
