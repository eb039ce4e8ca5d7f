// Package pareto computes Pareto-optimal frequency configurations in the
// speedup / normalized-energy plane used throughout the paper: a point
// dominates another when it has at least the speedup and at most the
// normalized energy, with one inequality strict. The Pareto front is the
// non-dominated subset; its members are the "optimal" frequencies the models
// are asked to predict (§2.1, §5.2.2).
package pareto

import (
	"cmp"
	"math"
	"slices"
)

// Point is one frequency configuration's outcome: speedup and normalized
// energy relative to the device baseline.
type Point struct {
	FreqMHz    int
	Speedup    float64 // higher is better
	NormEnergy float64 // lower is better
}

// Front returns the Pareto-optimal subset of points, sorted by descending
// speedup. Duplicate outcomes are reduced to a single representative (the
// lowest frequency, being the cheaper configuration).
func Front(points []Point) []Point {
	if len(points) == 0 {
		return nil
	}
	return AppendFront(nil, append([]Point(nil), points...))
}

// AppendFront sorts scratch in place and appends its Pareto-optimal subset,
// as Front returns it, to dst. dst may be scratch[:0]: the scan never
// writes past the point it has read, so the front then fills scratch's
// prefix and nothing is allocated.
func AppendFront(dst, scratch []Point) []Point {
	// Sort by speedup descending; ties by energy ascending, then frequency
	// ascending, so the scan below keeps the preferred representative. The
	// sort tests only for a negative result, which the comparator gives
	// exactly when a must precede b; a NaN in the deciding field gives a
	// positive result both ways round, so neither point precedes the other.
	slices.SortFunc(scratch, func(a, b Point) int {
		// Exact stored-value tie-breaks: identical predictions must compare
		// equal so the comparator stays a strict weak ordering.
		//dsalint:ignore floateq
		if a.Speedup != b.Speedup {
			if a.Speedup > b.Speedup {
				return -1
			}
			return 1
		}
		//dsalint:ignore floateq
		if a.NormEnergy != b.NormEnergy {
			if a.NormEnergy < b.NormEnergy {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.FreqMHz, b.FreqMHz)
	})
	bestEnergy := math.Inf(1)
	lastSpeedup := math.Inf(1)
	for _, p := range scratch {
		// Strictly lower energy than everything faster -> non-dominated.
		// lastSpeedup is copied verbatim from a scanned point, so exact
		// identity is the correct same-speedup-group test.
		//dsalint:ignore floateq
		if p.NormEnergy < bestEnergy && p.Speedup != lastSpeedup {
			dst = append(dst, p)
			bestEnergy = p.NormEnergy
			lastSpeedup = p.Speedup
		}
	}
	return dst
}

// Frequencies extracts the frequency set of the points.
func Frequencies(points []Point) []int {
	out := make([]int, len(points))
	for i, p := range points {
		out[i] = p.FreqMHz
	}
	return out
}

// ExactMatches counts how many predicted frequencies appear in the true
// Pareto-optimal frequency set — the paper's exact-match accuracy metric for
// predicted Pareto sets (§5.2.2).
func ExactMatches(predicted, truth []int) int {
	set := make(map[int]bool, len(truth))
	for _, f := range truth {
		set[f] = true
	}
	n := 0
	for _, f := range predicted {
		if set[f] {
			n++
		}
	}
	return n
}

// MeanFrontDistance measures how close a set of achieved points lies to a
// reference front: for each point, the Euclidean distance (in the
// speedup/normalized-energy plane) to the nearest front member, averaged.
// Lower is a better Pareto approximation.
func MeanFrontDistance(achieved, front []Point) float64 {
	if len(achieved) == 0 || len(front) == 0 {
		return math.NaN()
	}
	var total float64
	for _, a := range achieved {
		best := math.Inf(1)
		for _, f := range front {
			ds := a.Speedup - f.Speedup
			de := a.NormEnergy - f.NormEnergy
			if d := math.Sqrt(ds*ds + de*de); d < best {
				best = d
			}
		}
		total += best
	}
	return total / float64(len(achieved))
}
