// Package ml is a from-scratch machine-learning library covering what the
// paper uses from scikit-learn: linear regression, Lasso, ε-SVR with an RBF
// kernel, random-forest regression, grid-search hyper-parameter tuning with
// k-fold cross-validation, and the MAPE metric. Everything is stdlib-only and
// deterministic (seeded generators).
package ml

import (
	"errors"
	"fmt"
	"math"

	"dsenergy/internal/obs"
)

// Regressor is a trainable scalar regression model.
type Regressor interface {
	// Fit trains on rows X with targets y. Implementations must not retain
	// the caller's slices.
	Fit(X [][]float64, y []float64) error
	// Predict returns the model output for one feature row.
	Predict(x []float64) float64
}

// Spec names a regression algorithm plus its hyper-parameters, so training
// pipelines and the grid search can construct models declaratively.
type Spec struct {
	// Algorithm is one of "linear", "lasso", "svr", "forest".
	Algorithm string
	// Params holds algorithm-specific hyper-parameters; missing keys take
	// the algorithm defaults (matching scikit-learn's defaults where the
	// paper relies on them).
	Params map[string]float64
	// Obs is an optional observability sink: training counts phase timers
	// (per-tree, per-fold, per-grid-point) and stable work counters against
	// it. Nil disables instrumentation; attaching an observer never changes
	// a training result.
	Obs *obs.Observer
}

// param returns the named parameter or def.
func (s Spec) param(name string, def float64) float64 {
	if v, ok := s.Params[name]; ok {
		return v
	}
	return def
}

// New constructs the regressor described by the spec. The seed feeds
// stochastic algorithms (the forest's bootstrap); deterministic algorithms
// ignore it.
func (s Spec) New(seed uint64) (Regressor, error) {
	switch s.Algorithm {
	case "linear":
		return NewLinear(), nil
	case "lasso":
		return NewLasso(s.param("alpha", 1.0)), nil
	case "svr":
		return NewSVR(
			s.param("C", 1.0),
			s.param("epsilon", 0.1),
			s.param("gamma", 0), // 0 = scale heuristic
		), nil
	case "forest":
		return NewForest(ForestConfig{
			NumTrees:    int(s.param("n_estimators", 100)),
			MaxDepth:    int(s.param("max_depth", 0)),
			MaxFeatures: int(s.param("max_features", 0)),
			MinLeaf:     int(s.param("min_samples_leaf", 1)),
			Seed:        seed,
			Obs:         s.Obs,
		}), nil
	default:
		return nil, fmt.Errorf("ml: unknown algorithm %q", s.Algorithm)
	}
}

// ErrNaNInput reports a NaN feature or target in training data. The tree
// presort ranks every column under a total order, which NaN does not have,
// so every Fit refuses such data.
var ErrNaNInput = errors.New("ml: NaN in training data")

// columnStats returns each of the d columns' mean and population standard
// deviation over the n rows of X (1 for a constant column): the
// standardization the Lasso and SVR fits apply to their features.
func columnStats(X [][]float64, n, d int) (mean, scale []float64) {
	mean, scale = make([]float64, d), make([]float64, d)
	for j := 0; j < d; j++ {
		var m float64
		for i := 0; i < n; i++ {
			m += X[i][j]
		}
		m /= float64(n)
		var v float64
		for i := 0; i < n; i++ {
			dv := X[i][j] - m
			v += dv * dv
		}
		s := math.Sqrt(v / float64(n))
		if s == 0 {
			s = 1
		}
		mean[j], scale[j] = m, s
	}
	return mean, scale
}

// checkXY validates a training set: its shape, and that no feature or
// target is NaN (±Inf and −0 are accepted).
func checkXY(X [][]float64, y []float64) (rows, cols int, err error) {
	if len(X) == 0 || len(y) == 0 {
		return 0, 0, fmt.Errorf("ml: empty training set")
	}
	if len(X) != len(y) {
		return 0, 0, fmt.Errorf("ml: %d rows but %d targets", len(X), len(y))
	}
	cols = len(X[0])
	if cols == 0 {
		return 0, 0, fmt.Errorf("ml: zero-width feature rows")
	}
	for i, r := range X {
		if len(r) != cols {
			return 0, 0, fmt.Errorf("ml: row %d has %d features, want %d", i, len(r), cols)
		}
		for j, v := range r {
			if math.IsNaN(v) {
				return 0, 0, fmt.Errorf("%w: row %d, column %d", ErrNaNInput, i, j)
			}
		}
		if math.IsNaN(y[i]) {
			return 0, 0, fmt.Errorf("%w: row %d, target", ErrNaNInput, i)
		}
	}
	return len(X), cols, nil
}
