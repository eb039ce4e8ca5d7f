package gpmodel

import (
	"fmt"
	"slices"

	"dsenergy/internal/core"
	"dsenergy/internal/ml"
	"dsenergy/internal/synergy"
)

// ClusteredModel is the second general-purpose baseline family the paper's
// related work discusses (Wu et al., HPCA'15): micro-benchmarks are
// clustered by their static feature vectors with k-means, and each cluster
// carries the mean measured scaling curve of its members. Prediction assigns
// an application's static features to the nearest cluster and returns that
// cluster's curve — input-blind, like the regression-based model.
type ClusteredModel struct {
	km *ml.KMeans
	// curves holds each cluster's mean member curve over the ascending
	// training sweep, normalized to its point at the baseline clock.
	curves [][]core.CurvePoint
}

// TrainClustered measures the micro-benchmark suite on q, over the training
// sweep in ascending order, and builds a k-cluster model.
func TrainClustered(q *synergy.Queue, cfg TrainConfig, k int) (*ClusteredModel, error) {
	sorted := slices.Clone(cfg.Freqs)
	slices.Sort(sorted)
	features, benchCurves, err := measureSuite(q, sorted, cfg.Reps)
	if err != nil {
		return nil, err
	}
	km := ml.NewKMeans(k)
	if err := km.Fit(features, cfg.Seed); err != nil {
		return nil, fmt.Errorf("gpmodel: clustering suite: %w", err)
	}

	// Average the member curves of each cluster.
	sweep := benchCurves[0]
	curves := make([][]core.CurvePoint, k)
	counts := make([]int, k)
	for c := range curves {
		curves[c] = make([]core.CurvePoint, len(sweep))
		for fi, p := range sweep {
			curves[c][fi].FreqMHz = p.FreqMHz
		}
	}
	for bi, bench := range benchCurves {
		c := km.Predict(features[bi])
		counts[c]++
		for fi, p := range bench {
			curves[c][fi].Speedup += p.Speedup
			curves[c][fi].NormEnergy += p.NormEnergy
		}
	}
	base := q.BaselineFreqMHz()
	for c, curve := range curves {
		if counts[c] == 0 {
			continue
		}
		inv := 1 / float64(counts[c])
		for fi := range curve {
			curve[fi].Speedup *= inv
			curve[fi].NormEnergy *= inv
		}
		// Re-normalize to the baseline point, which the averaging moved off
		// (1, 1); a sweep without the baseline is kept as averaged.
		bi := slices.IndexFunc(curve, func(p core.CurvePoint) bool { return p.FreqMHz == base })
		if bi < 0 || curve[bi].Speedup == 0 || curve[bi].NormEnergy == 0 {
			continue
		}
		baseP := curve[bi]
		for fi := range curve {
			curve[fi].Speedup /= baseP.Speedup
			curve[fi].NormEnergy /= baseP.NormEnergy
		}
	}
	return &ClusteredModel{km: km, curves: curves}, nil
}

// PredictCurves returns the curve of the cluster nearest to an application's
// static features at the requested frequencies, which must be part of the
// training sweep.
func (m *ClusteredModel) PredictCurves(features []float64, freqs []int) ([]core.CurvePoint, error) {
	curve := m.curves[m.km.Predict(features)]
	out := make([]core.CurvePoint, 0, len(freqs))
	for _, f := range freqs {
		i := slices.IndexFunc(curve, func(p core.CurvePoint) bool { return p.FreqMHz == f })
		if i < 0 {
			return nil, fmt.Errorf("gpmodel: frequency %d MHz not in clustered training sweep", f)
		}
		out = append(out, curve[i])
	}
	return out, nil
}
