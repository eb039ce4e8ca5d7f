package gpmodel

import (
	"fmt"
	"sort"

	"dsenergy/internal/kernels"
	"dsenergy/internal/microbench"
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
	BaselineFreqMHz int
	TrainedOn       string

	km     *ml.KMeans
	freqs  []int
	curves [][]CurvePoint // per cluster, aligned with freqs
}

// TrainClustered measures the micro-benchmark suite on q and builds a
// k-cluster model.
func TrainClustered(q *synergy.Queue, cfg TrainConfig, k int) (*ClusteredModel, error) {
	freqs := cfg.Freqs
	if freqs == nil {
		freqs = q.SupportedFreqsMHz()
	}
	if len(freqs) == 0 {
		return nil, fmt.Errorf("gpmodel: empty frequency sweep")
	}
	reps := cfg.Reps
	if reps <= 0 {
		reps = 5
	}
	sorted := append([]int(nil), freqs...)
	sort.Ints(sorted)
	base := q.BaselineFreqMHz()

	suite := microbench.Suite()
	features := make([][]float64, len(suite))
	benchCurves := make([][]CurvePoint, len(suite))
	for bi, b := range suite {
		features[bi] = b.Profile.Mix.StaticFeatures()
		w := synergy.Kernels{b.Profile}
		ref, err := synergy.MeasureAt(q, w, base, reps)
		if err != nil {
			return nil, fmt.Errorf("gpmodel: clustered baseline for %s: %w", b.Name, err)
		}
		row := make([]CurvePoint, len(sorted))
		for fi, f := range sorted {
			m, err := synergy.MeasureAt(q, w, f, reps)
			if err != nil {
				return nil, err
			}
			row[fi] = CurvePoint{
				FreqMHz:    f,
				Speedup:    ref.TimeS / m.TimeS,
				NormEnergy: m.EnergyJ / ref.EnergyJ,
			}
		}
		benchCurves[bi] = row
	}

	km := ml.NewKMeans(k)
	if err := km.Fit(features, cfg.Seed); err != nil {
		return nil, fmt.Errorf("gpmodel: clustering suite: %w", err)
	}

	// Average the member curves of each cluster.
	curves := make([][]CurvePoint, k)
	counts := make([]int, k)
	for c := range curves {
		curves[c] = make([]CurvePoint, len(sorted))
		for fi, f := range sorted {
			curves[c][fi].FreqMHz = f
		}
	}
	for bi := range suite {
		c := km.Predict(features[bi])
		counts[c]++
		for fi := range sorted {
			curves[c][fi].Speedup += benchCurves[bi][fi].Speedup
			curves[c][fi].NormEnergy += benchCurves[bi][fi].NormEnergy
		}
	}
	for c := range curves {
		if counts[c] == 0 {
			continue
		}
		inv := 1 / float64(counts[c])
		for fi := range curves[c] {
			curves[c][fi].Speedup *= inv
			curves[c][fi].NormEnergy *= inv
		}
	}

	return &ClusteredModel{
		BaselineFreqMHz: base,
		TrainedOn:       q.Spec().Name,
		km:              km,
		freqs:           sorted,
		curves:          curves,
	}, nil
}

// PredictCurves returns the assigned cluster's curve at the requested
// frequencies (which must be a subset of the training sweep), re-normalized
// to the baseline point.
func (m *ClusteredModel) PredictCurves(mix kernels.InstructionMix, freqs []int) ([]CurvePoint, error) {
	cluster := m.km.Predict(mix.StaticFeatures())
	curve := m.curves[cluster]
	byFreq := make(map[int]CurvePoint, len(curve))
	for _, p := range curve {
		byFreq[p.FreqMHz] = p
	}
	baseP, ok := byFreq[m.BaselineFreqMHz]
	if !ok || baseP.Speedup == 0 || baseP.NormEnergy == 0 {
		baseP = CurvePoint{Speedup: 1, NormEnergy: 1}
	}
	out := make([]CurvePoint, 0, len(freqs))
	for _, f := range freqs {
		p, ok := byFreq[f]
		if !ok {
			return nil, fmt.Errorf("gpmodel: frequency %d MHz not in clustered training sweep", f)
		}
		out = append(out, CurvePoint{
			FreqMHz:    f,
			Speedup:    p.Speedup / baseP.Speedup,
			NormEnergy: p.NormEnergy / baseP.NormEnergy,
		})
	}
	return out, nil
}
