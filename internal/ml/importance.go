package ml

import (
	"fmt"

	"dsenergy/internal/xrand"
)

// Model interpretation utilities: which features carry a trained model's
// predictive power. The paper's feature-selection argument (§4.2.1) — input
// characteristics matter, static features don't capture them — becomes
// checkable: the domain-specific forests must put weight on the input
// features, not just the frequency column.

// PermutationImportance measures each feature's contribution to a fitted
// regressor: the increase in MAPE on (X, y) after shuffling that feature's
// column, averaged over rounds. Larger is more important; ~0 means the model
// ignores the feature. X must be as wide as the rows r was fitted on.
func PermutationImportance(r Regressor, X [][]float64, y []float64, rounds int, seed uint64) ([]float64, error) {
	n, d, err := checkXY(X, y)
	if err != nil {
		return nil, err
	}
	// PredictBatch, like Predict, routes a short row to 0 and ignores extra
	// columns, so a mis-shaped X would give plausible wrong importances.
	w, err := fittedWidth(r)
	if err != nil {
		return nil, err
	}
	if d != w {
		return nil, fmt.Errorf("ml: %d features, model expects %d", d, w)
	}
	if rounds < 1 {
		rounds = 1
	}
	base := MAPE(y, PredictBatch(r, X))
	rng := xrand.New(seed)

	imp := make([]float64, d)
	col := make([]float64, n)
	work := cloneMatrix(X)
	for j := 0; j < d; j++ {
		var total float64
		for round := 0; round < rounds; round++ {
			for i := range col {
				col[i] = X[i][j]
			}
			rng.Shuffle(n, func(a, b int) { col[a], col[b] = col[b], col[a] })
			for i := range work {
				work[i][j] = col[i]
			}
			total += MAPE(y, PredictBatch(r, work)) - base
		}
		imp[j] = total / float64(rounds)
		// Restore the column.
		for i := range work {
			work[i][j] = X[i][j]
		}
	}
	return imp, nil
}

// ForestFeatureImportance returns impurity-based (Gini-style, here
// SSE-reduction) importances of a fitted forest, normalized to sum to 1.
func ForestFeatureImportance(f *Forest, numFeatures int) ([]float64, error) {
	if f == nil || len(f.trees) == 0 {
		return nil, fmt.Errorf("ml: importance of unfitted forest")
	}
	if numFeatures < 1 {
		return nil, fmt.Errorf("ml: non-positive feature count")
	}
	imp := make([]float64, numFeatures)
	for _, t := range f.trees {
		accumulateImportance(t, imp)
	}
	var total float64
	for _, v := range imp {
		total += v
	}
	if total > 0 {
		for j := range imp {
			imp[j] /= total
		}
	}
	return imp, nil
}

// accumulateImportance adds each split's weight to its feature. Gains are
// not stored on nodes, so the walk uses split counts as a proxy weighted by
// subtree size — deeper splits partition fewer samples. The flat node arrays
// are laid out in preorder, so an ascending index sweep visits splits in the
// same depth-first order (and accumulates in the same float order) as the
// legacy pointer walk.
func accumulateImportance(t *Tree, imp []float64) {
	counts := t.subtreeLeafCounts()
	for i, f := range t.feature {
		if f >= 0 && int(f) < len(imp) {
			// Weight a split by the size of the subtree it governs.
			imp[f] += float64(counts[i])
		}
	}
}
