package ml

import (
	"context"
	"fmt"
	"sort"

	"dsenergy/internal/parallel"
	"dsenergy/internal/xrand"
)

// evalFold fits spec on every sample outside test and returns the MAPE on
// the held-out fold. scratch is an n-length membership marker owned by the
// caller: evalFold marks the test indices on entry and unmarks them before
// returning, so the caller reuses one allocation across all folds.
func evalFold(spec Spec, X [][]float64, y []float64, test []int, scratch []bool, seed uint64) (float64, error) {
	stop := spec.Obs.Profile().Phase("ml.cv.fold").Start()
	defer stop()
	for _, i := range test {
		scratch[i] = true
	}
	defer func() {
		for _, i := range test {
			scratch[i] = false
		}
	}()
	var trX [][]float64
	var trY []float64
	for i := range X {
		if !scratch[i] {
			trX = append(trX, X[i])
			trY = append(trY, y[i])
		}
	}
	model, err := spec.New(seed)
	if err != nil {
		return 0, err
	}
	if err := model.Fit(trX, trY); err != nil {
		return 0, err
	}
	var yt, yp []float64
	for _, i := range test {
		yt = append(yt, y[i])
		yp = append(yp, model.Predict(X[i]))
	}
	spec.Obs.Metrics().Counter("ml_cv_folds_total").Inc()
	return MAPE(yt, yp), nil
}

// kfoldMAPE computes the shuffled k-fold MAPE. Fold seeds (seed + fold) and
// the shuffle are fixed before any fold runs, and the per-fold MAPEs are
// summed in fold order.
//
// perm optionally supplies the length-n shuffle; nil derives it from the
// seed as always. GridSearchParallel computes Perm(n) once and shares it
// (read-only) across every grid point, since every point would derive the
// identical permutation from the same (n, seed) anyway.
func kfoldMAPE(spec Spec, X [][]float64, y []float64, k int, seed uint64, perm []int) (float64, error) {
	n, _, err := checkXY(X, y)
	if err != nil {
		return 0, err
	}
	if k < 2 || k > n {
		return 0, fmt.Errorf("ml: k-fold needs 2 <= k <= n, got k=%d n=%d", k, n)
	}
	if perm == nil {
		perm = xrand.New(seed).Perm(n)
	}
	scratch := make([]bool, n)
	var total float64
	for fold := 0; fold < k; fold++ {
		lo, hi := fold*n/k, (fold+1)*n/k
		m, err := evalFold(spec, X, y, perm[lo:hi], scratch, seed+uint64(fold))
		if err != nil {
			return 0, err
		}
		total += m
	}
	return total / float64(k), nil
}

// GridPoint is one hyper-parameter assignment evaluated by GridSearchParallel.
type GridPoint struct {
	Params map[string]float64
	MAPE   float64
}

// enumerateGrid expands the Cartesian product of the parameter grid into one
// assignment per point, ordered lexicographically by sorted parameter name —
// a fixed enumeration the evaluation stage can fan out over.
func enumerateGrid(grid map[string][]float64) []map[string]float64 {
	names := make([]string, 0, len(grid))
	for name := range grid {
		names = append(names, name)
	}
	sort.Strings(names)

	var combos []map[string]float64
	var rec func(i int, cur map[string]float64)
	rec = func(i int, cur map[string]float64) {
		if i == len(names) {
			combo := make(map[string]float64, len(cur))
			for k, v := range cur {
				combo[k] = v
			}
			combos = append(combos, combo)
			return
		}
		for _, v := range grid[names[i]] {
			cur[names[i]] = v
			rec(i+1, cur)
		}
		delete(cur, names[i])
	}
	rec(0, map[string]float64{})
	return combos
}

// GridSearchParallel exhaustively evaluates the Cartesian product of the
// parameter grid with k-fold CV and returns every point (best first). This
// reproduces the paper's random-forest tuning over max_depth, n_estimators
// and max_features. The grid points are evaluated on a worker pool
// (workers <= 0 selects GOMAXPROCS). Each point's CV run depends only on
// (spec, seed), both fixed at enumeration time, and the final ranking is a
// stable sort over the fixed enumeration order, so the result is identical
// for every worker count.
func GridSearchParallel(base Spec, grid map[string][]float64, X [][]float64, y []float64, k int, seed uint64, workers int) ([]GridPoint, error) {
	combos := enumerateGrid(grid)
	n, _, err := checkXY(X, y)
	if err != nil {
		return nil, err
	}
	// Every grid point runs k-fold CV on the same (n, seed), so they would
	// all derive the same shuffle; compute it once and share it read-only.
	perm := xrand.New(seed).Perm(n)
	gridPoints := base.Obs.Metrics().Counter("ml_grid_points_total")
	gridPhase := base.Obs.Profile().Phase("ml.grid.point")
	points := make([]GridPoint, len(combos))
	err = parallel.ForEachChunked(context.Background(), len(combos), workers, 0, func(_ context.Context, lo, hi int) error {
		for i := lo; i < hi; i++ {
			stop := gridPhase.Start()
			spec := Spec{Algorithm: base.Algorithm, Params: map[string]float64{}, Obs: base.Obs}
			for k, v := range base.Params {
				spec.Params[k] = v
			}
			for k, v := range combos[i] {
				spec.Params[k] = v
			}
			m, err := kfoldMAPE(spec, X, y, k, seed, perm)
			stop()
			if err != nil {
				return err
			}
			gridPoints.Inc()
			points[i] = GridPoint{Params: combos[i], MAPE: m}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Cold path: ranking a handful of grid points once per search.
	//dsalint:ignore sortslice
	sort.SliceStable(points, func(a, b int) bool { return points[a].MAPE < points[b].MAPE })
	return points, nil
}
