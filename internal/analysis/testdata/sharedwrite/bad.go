// Seeded sharedwrite violations: pool task closures mutating captured state
// — a shared slice slot, an append, a scalar counter, a map store, a write
// through a captured pointer, and a gang slab body bumping its owner's field.
package fixture

import "fixture/sharedwrite/internal/parallel"

func sharedSliceSlot(xs []float64) error {
	return parallel.ForEach(len(xs), 4, func(i int) error {
		xs[0] = xs[i] // every task writes slot 0
		return nil
	})
}

func sharedAppend(xs []float64) ([]float64, error) {
	var out []float64
	err := parallel.ForEach(len(xs), 4, func(i int) error {
		out = append(out, xs[i]*2) // schedule-ordered append to captured slice
		return nil
	})
	return out, err
}

func sharedCounter(xs []float64) (int, error) {
	done := 0
	err := parallel.ForEach(len(xs), 4, func(i int) error {
		done++ // captured counter; racy and schedule-ordered
		return nil
	})
	return done, err
}

func sharedMap(names []string) (map[string]int, error) {
	seen := map[string]int{}
	err := parallel.ForEach(len(names), 4, func(i int) error {
		seen[names[i]] = i // concurrent map store
		return nil
	})
	return seen, err
}

func sharedPointer(total *float64, xs []float64) error {
	return parallel.ForEach(len(xs), 4, func(i int) error {
		*total = *total + xs[i] // write through captured pointer
		return nil
	})
}

func chunkedSharedSlot(xs []float64) error {
	return parallel.ForEachChunked(len(xs), 4, 8, func(lo, hi int) error {
		xs[0] = float64(hi) // every chunk writes slot 0
		return nil
	})
}

type solver struct{ FluxEvals int64 }

func (s *solver) gangSharedField(g *parallel.Gang, xs []float64) {
	g.Run(len(xs), func(_, lo, hi int) {
		s.FluxEvals += int64(hi - lo) // every slab bumps one shared field
	})
}
