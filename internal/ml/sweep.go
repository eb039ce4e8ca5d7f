package ml

import (
	"fmt"
	"math"
)

// PredictSweep evaluates r at every value of one swept input column: out[j]
// is r.Predict on the row features ++ [sweep[j]], bit for bit. The swept
// column is the model's last one — the layout of every (inputs, clock) row
// the domain-specific and general-purpose models train on — so a frequency
// menu is one sweep. The row width is checked: features must hold exactly
// one column fewer than the model was fitted on, and out must be as long as
// sweep. Unlike Predict, a mis-shaped row is an error, never a zero or a
// trailing column silently read as the clock.
//
// Trees and forests run the curve kernel (see Tree.sweepAdd), which walks
// each tree once for the whole sweep instead of once per value. Linear,
// Lasso and SVR models assemble the rows and call Predict per value.
// PredictSweep allocates nothing for trees and forests on sweeps of up to
// smallSweep values.
func PredictSweep(r Regressor, features, sweep, out []float64) error {
	if len(out) != len(sweep) {
		return fmt.Errorf("ml: sweep has %d values but the output holds %d", len(sweep), len(out))
	}
	d, err := fittedWidth(r)
	if err != nil {
		return err
	}
	if len(features)+1 != d {
		return fmt.Errorf("ml: %d features plus the swept column make %d, model expects %d",
			len(features), len(features)+1, d)
	}
	switch m := r.(type) {
	case *Forest:
		// Forest.Predict sums its trees from +0 in tree order, then divides.
		sweepTrees(m.trees, features, sweep, out, 0)
		k := float64(len(m.trees))
		for j := range out {
			out[j] /= k
		}
	case *Tree:
		// −0 is the additive identity (−0 + v is v for every v, +0 and −0
		// included), so one tree's sum is its leaf value exactly.
		sweepTrees([]*Tree{m}, features, sweep, out, math.Copysign(0, -1))
	default:
		row := make([]float64, d)
		copy(row, features)
		for j, v := range sweep {
			row[d-1] = v
			out[j] = r.Predict(row)
		}
	}
	return nil
}

// fittedWidth returns the row width r was fitted on, or an error for an
// unfitted model or a type whose width cannot be checked.
func fittedWidth(r Regressor) (int, error) {
	switch m := r.(type) {
	case *Forest:
		if len(m.trees) == 0 {
			return 0, errUnfitted("forest")
		}
		return m.trees[0].d, nil
	case *Tree:
		if len(m.feature) == 0 {
			return 0, errUnfitted("tree")
		}
		return m.d, nil
	case *Linear:
		if len(m.Coef) == 0 {
			return 0, errUnfitted("linear")
		}
		return len(m.Coef), nil
	case *Lasso:
		if len(m.Coef) == 0 {
			return 0, errUnfitted("lasso")
		}
		return len(m.Coef), nil
	case *SVR:
		if len(m.mean) == 0 {
			return 0, errUnfitted("svr")
		}
		return len(m.mean), nil
	default:
		return 0, fmt.Errorf("ml: cannot width-check regressor type %T", r)
	}
}

// smallSweep is the longest sweep the kernel keeps its scratch for on the
// stack; longer sweeps allocate it once per call.
const smallSweep = 32

// sweepFrame is a pending subtree: node, reached by the sorted sweep
// positions [lo, hi).
type sweepFrame struct{ node, lo, hi int32 }

// sweepTrees sets out[j] to init plus the sum, in tree order, of every
// tree's prediction on features ++ [sweep[j]]: per j the exact sequence of
// additions Forest.Predict performs. The sweep is sorted once (NaN last, the
// order in which no value x <= t is followed by one that is), so at each
// tree node the values take one contiguous run of sorted positions.
func sweepTrees(trees []*Tree, features, sweep, out []float64, init float64) {
	n := len(sweep)
	if n == 0 {
		return
	}
	var (
		valBuf [smallSweep]float64
		accBuf [smallSweep]float64
		ordBuf [smallSweep]int32
		stkBuf [smallSweep]sweepFrame
		vals   []float64
		acc    []float64
		ord    []int32
		stk    []sweepFrame
	)
	if n <= smallSweep {
		vals, acc, ord, stk = valBuf[:n], accBuf[:n], ordBuf[:n], stkBuf[:0:n]
	} else {
		vals, acc, ord, stk = make([]float64, n), make([]float64, n), make([]int32, n), make([]sweepFrame, 0, n)
	}
	// Insertion sort by value: a menu arrives sorted or nearly so (a
	// baseline clock ahead of an ascending list), which it orders in
	// linear time.
	for j, v := range sweep {
		p := j
		for ; p > 0 && sweepLess(v, vals[p-1]); p-- {
			vals[p], ord[p] = vals[p-1], ord[p-1]
		}
		vals[p], ord[p] = v, int32(j)
	}
	for p := range acc {
		acc[p] = init
	}
	for _, t := range trees {
		t.sweepAdd(features, vals, acc, stk)
	}
	for p, j := range ord {
		out[j] = acc[p]
	}
}

// sweepLess orders sweep values ascending with NaN after every number.
func sweepLess(a, b float64) bool {
	return a < b || (math.IsNaN(b) && !math.IsNaN(a))
}

// sweepAdd adds the tree's prediction at each sorted sweep value vals[p] to
// acc[p]; the other columns of the row are x, and the swept column is the
// last one. The tree is walked once: a split on an x column follows one
// child, exactly as Predict does; a split on the swept column sends the
// sorted positions with vals[p] <= thresh left and the rest right, and
// descends both halves; a leaf adds its value to the run of positions that
// reached it. Each position reaches exactly one leaf, the leaf Predict
// would reach on its row. stk needs capacity len(vals): the pending frames
// and the one being walked hold disjoint non-empty runs, so they never
// outnumber the values. A tree without nodes adds 0, as Predict returns.
func (t *Tree) sweepAdd(x, vals, acc []float64, stk []sweepFrame) {
	if len(t.feature) == 0 {
		for p := range acc {
			acc[p] += 0
		}
		return
	}
	clock := int32(len(x))
	feature, thresh, left, right, value := t.feature, t.thresh, t.left, t.right, t.value
	stk = append(stk[:0], sweepFrame{0, 0, int32(len(vals))})
	for len(stk) > 0 {
		fr := stk[len(stk)-1]
		stk = stk[:len(stk)-1]
		i, lo, hi := fr.node, fr.lo, fr.hi
		for {
			f := feature[i]
			if f < 0 {
				v := value[i]
				for p := lo; p < hi; p++ {
					acc[p] += v
				}
				break
			}
			th := thresh[i]
			if f != clock {
				if x[f] <= th {
					i = left[i]
				} else {
					i = right[i]
				}
				continue
			}
			cut := lo
			for cut < hi && vals[cut] <= th {
				cut++
			}
			switch cut {
			case lo:
				i = right[i]
			case hi:
				i = left[i]
			default:
				stk = append(stk, sweepFrame{right[i], cut, hi})
				i, hi = left[i], cut
			}
		}
	}
}
