package ml

import (
	"context"
	"fmt"

	"dsenergy/internal/obs"
	"dsenergy/internal/parallel"
	"dsenergy/internal/xrand"
)

// ForestConfig configures a random-forest regressor. Zero values select the
// scikit-learn defaults the paper relies on ("the default parameter performs
// better for both the speedup and energy models").
type ForestConfig struct {
	// NumTrees is n_estimators (default 100).
	NumTrees int
	// MaxDepth is the per-tree depth limit (0 = unbounded).
	MaxDepth int
	// MaxFeatures is the number of features probed per split
	// (0 = all features, scikit-learn's regression default).
	MaxFeatures int
	// MinLeaf is min_samples_leaf (default 1).
	MinLeaf int
	// Workers bounds the training goroutines (0 = GOMAXPROCS).
	Workers int
	// Seed drives bootstrap and feature sampling.
	Seed uint64
	// Obs is an optional observability sink for per-tree training timers
	// and counters. Nil disables instrumentation.
	Obs *obs.Observer
}

// Forest is a bagged ensemble of CART regression trees with per-node feature
// subsampling — the model the paper selects for both the speedup and the
// normalized-energy domain-specific models. Trees are flat SoA structures
// (see Tree). A prediction curve — one input at every clock of a menu —
// goes through PredictSweep, which walks each tree once for the whole menu.
type Forest struct {
	cfg   ForestConfig
	trees []*Tree
}

// NewForest returns an untrained forest.
func NewForest(cfg ForestConfig) *Forest {
	if cfg.NumTrees <= 0 {
		cfg.NumTrees = 100
	}
	if cfg.MinLeaf <= 0 {
		cfg.MinLeaf = 1
	}
	return &Forest{cfg: cfg}
}

// Fit implements Regressor: trees are trained concurrently, each with an
// independent generator split derived from the forest seed and the tree
// index, so results do not depend on scheduling. Fit transposes X once and
// ranks each of its columns once (rankColumns); the copy and the ranks are
// shared read-only by every tree. Each training task draws a pooled
// workspace, gathers its bootstrap sample straight into the workspace's
// column-major buffers, orders it per feature with a counting sort of the
// shared ranks, and grows the tree without per-node allocations.
func (f *Forest) Fit(X [][]float64, y []float64) error {
	n, d, err := checkXY(X, y)
	if err != nil {
		return err
	}
	// One column-major copy shared (read-only) by every bootstrap gather:
	// filling a tree's feature column walks one contiguous source column.
	// The trees read this copy and the targets, never retaining the
	// caller's slices.
	colData := make([]float64, n*d)
	cols := make([][]float64, d)
	for ff := 0; ff < d; ff++ {
		cols[ff] = colData[ff*n : (ff+1)*n]
	}
	for i, row := range X {
		for ff, v := range row {
			cols[ff][i] = v
		}
	}
	ranks := rankColumns(cols)

	f.trees = make([]*Tree, f.cfg.NumTrees)
	// Resolve handles once: the counter total (trees trained) is the same for
	// every schedule, so it is stable-tier; the phase timer is wall clock and
	// lives in the profile dump only.
	treesTrained := f.cfg.Obs.Metrics().Counter("ml_trees_trained_total")
	treePhase := f.cfg.Obs.Profile().Phase("ml.forest.tree")
	err = parallel.ForEach(context.Background(), f.cfg.NumTrees, f.cfg.Workers, func(_ context.Context, ti int) error {
		stop := treePhase.Start()
		defer stop()
		ws := getWorkspace()
		defer putWorkspace(ws)
		ws.reset(n, d)
		tree := f.bootstrapTree(ti, ws, cols, y)
		ws.presort(ranks)
		tree.fit(ws)
		f.trees[ti] = tree
		treesTrained.Inc()
		return nil
	})
	return err
}

// bootstrapTree loads ws, reset to the forest's n×d problem, with tree ti's
// bootstrap sample of the shared column copy cols and targets y, and returns
// the unfitted tree with its feature sampler. The tree's generator derives
// from the forest seed and the tree index alone — no pre-split needed,
// scheduling cannot touch it.
func (f *Forest) bootstrapTree(ti int, ws *treeWorkspace, cols [][]float64, y []float64) *Tree {
	rng := xrand.New(f.cfg.Seed ^ (uint64(ti)+1)*0xd1342543de82ef95)
	// Bootstrap sample with replacement: draw the row multiset first
	// (same generator order as ever), then gather column by column.
	for i := range ws.boot {
		j := rng.Intn(len(y))
		ws.boot[i] = int32(j)
	}
	for ff, src := range cols {
		dst := ws.cols[ff]
		for i, j := range ws.boot {
			dst[i] = src[j]
		}
	}
	for i, j := range ws.boot {
		ws.y[i] = y[j]
	}
	tree := NewTree(f.cfg.MaxDepth, f.cfg.MinLeaf)
	if mf := f.cfg.MaxFeatures; mf > 0 && mf < len(cols) {
		tree.featurePicker = func(dd int) []int {
			perm := rng.Perm(dd)
			return perm[:mf]
		}
	}
	return tree
}

// Predict implements Regressor (ensemble mean).
func (f *Forest) Predict(x []float64) float64 {
	if len(f.trees) == 0 {
		return 0
	}
	var s float64
	for _, t := range f.trees {
		s += t.Predict(x)
	}
	return s / float64(len(f.trees))
}

func errUnfitted(kind string) error {
	return fmt.Errorf("ml: predict on unfitted %s", kind)
}
