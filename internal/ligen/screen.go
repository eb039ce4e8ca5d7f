package ligen

import (
	"context"
	"fmt"
	"sort"

	"dsenergy/internal/parallel"
	"dsenergy/internal/xrand"
)

// ScreenResult is one row of a virtual-screening ranking.
type ScreenResult struct {
	LigandIndex int
	Name        string
	Score       float64
}

// Screen ranks a chemical library against the target: every ligand is docked
// and scored independently (the problem is embarrassingly parallel, as the
// paper notes), fanned out over parallel.ForEach (workers <= 0 selects
// GOMAXPROCS). Each ligand derives its own generator from seed and its
// index, so the ranking is deterministic for any worker count.
func Screen(lib *Library, target *Pocket, params Params, workers int, seed uint64) ([]ScreenResult, error) {
	if lib == nil || len(lib.Ligands) == 0 {
		return nil, fmt.Errorf("ligen: empty library")
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	results := make([]ScreenResult, len(lib.Ligands))
	err := parallel.ForEach(context.Background(), len(lib.Ligands), workers, func(_ context.Context, i int) error {
		l := lib.Ligands[i]
		rng := xrand.New(seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15)
		r, err := Dock(l, target, params, rng)
		if err != nil {
			return fmt.Errorf("ligand %d (%s): %w", i, l.Name, err)
		}
		results[i] = ScreenResult{LigandIndex: i, Name: l.Name, Score: r.Score}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Rank the library by interaction strength, ties broken by index so the
	// output is total-ordered.
	sort.Slice(results, func(i, j int) bool {
		// Exact stored-value tie-break, not a numerical comparison.
		//dsalint:ignore floateq
		if results[i].Score != results[j].Score {
			return results[i].Score > results[j].Score
		}
		return results[i].LigandIndex < results[j].LigandIndex
	})
	return results, nil
}
