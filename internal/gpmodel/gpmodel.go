// Package gpmodel implements the general-purpose energy model the paper
// compares against (Fan et al., "Predictable GPUs Frequency Scaling for
// Energy and Performance", ICPP 2019): a supervised model trained on a suite
// of 106 micro-benchmarks whose inputs are the *static code features* of
// Table 1 plus the frequency configuration, predicting normalized energy and
// speedup for unseen codes without executing them.
//
// The model is a normalized core.Model over the static-feature schema, so it
// predicts, scores and takes its Pareto front exactly as a domain-specific
// model does; only its features differ. Being input-blind is the point: the
// model sees an application's instruction mix, not its workload, so one
// prediction curve serves every input size. That is exactly the limitation
// the paper's domain-specific models remove.
package gpmodel

import (
	"fmt"
	"slices"

	"dsenergy/internal/core"
	"dsenergy/internal/kernels"
	"dsenergy/internal/microbench"
	"dsenergy/internal/ml"
	"dsenergy/internal/synergy"
)

// TrainConfig controls the micro-benchmark training sweep.
type TrainConfig struct {
	// Freqs is the frequency subset swept during training (nil = every
	// frequency of the device, as in the paper).
	Freqs []int
	// Reps is the repetitions per measurement (0 selects the paper's 5).
	Reps int
	// Spec is the regression algorithm (zero value selects a random
	// forest, the strongest performer).
	Spec ml.Spec
	// Seed drives stochastic learners.
	Seed uint64
}

// Train measures the micro-benchmark suite on q across the frequency sweep
// and fits a normalized model of speedup and normalized energy whose schema
// is the ten Table 1 static features (kernels.FeatureNames). Predict an
// application's curve at the static features of its mix,
// AppStaticFeatures(profiles).StaticFeatures().
func Train(q *synergy.Queue, cfg TrainConfig) (*core.Model, error) {
	features, curves, err := measureSuite(q, cfg.Freqs, cfg.Reps)
	if err != nil {
		return nil, err
	}
	spec := cfg.Spec
	if spec.Algorithm == "" {
		spec = ml.Spec{Algorithm: "forest"}
	}
	var X [][]float64
	var ySpeed, yEnergy []float64
	for bi, curve := range curves {
		for _, c := range curve {
			X = append(X, append(slices.Clip(features[bi]), float64(c.FreqMHz)))
			ySpeed = append(ySpeed, c.Speedup)
			yEnergy = append(yEnergy, c.NormEnergy)
		}
	}
	m := &core.Model{
		Schema:          core.Schema{App: "general-purpose", Features: kernels.FeatureNames},
		Device:          q.Spec().Name,
		BaselineFreqMHz: q.BaselineFreqMHz(),
		Normalized:      true,
	}
	return m.Fit(X, ySpeed, yEnergy, spec, cfg.Seed)
}

// measureSuite measures each micro-benchmark of the suite on q, in suite
// order, at the baseline clock and then at each clock of freqs (nil = every
// device frequency) with reps repetitions (0 = the paper's 5). It returns
// each benchmark's static features and its measured curve against its
// baseline measurement.
func measureSuite(q *synergy.Queue, freqs []int, reps int) (features [][]float64, curves [][]core.CurvePoint, err error) {
	if freqs == nil {
		freqs = q.SupportedFreqsMHz()
	}
	if len(freqs) == 0 {
		return nil, nil, fmt.Errorf("gpmodel: empty frequency sweep")
	}
	if reps <= 0 {
		reps = 5
	}
	base := q.BaselineFreqMHz()
	suite := microbench.Suite()
	features = make([][]float64, len(suite))
	curves = make([][]core.CurvePoint, len(suite))
	for bi, b := range suite {
		features[bi] = b.Profile.Mix.StaticFeatures()
		w := synergy.Kernels{b.Profile}
		ref, err := synergy.MeasureAt(q, w, base, reps)
		if err != nil {
			return nil, nil, fmt.Errorf("gpmodel: baseline for %s: %w", b.Name, err)
		}
		curves[bi] = make([]core.CurvePoint, len(freqs))
		for fi, f := range freqs {
			m, err := synergy.MeasureAt(q, w, f, reps)
			if err != nil {
				return nil, nil, fmt.Errorf("gpmodel: %s at %d MHz: %w", b.Name, f, err)
			}
			curves[bi][fi] = core.CurvePoint{
				FreqMHz:    f,
				Speedup:    ref.TimeS / m.TimeS,
				NormEnergy: m.EnergyJ / ref.EnergyJ,
			}
		}
	}
	return features, curves, nil
}

// AppStaticFeatures extracts the input-independent feature vector of an
// application from its kernels: the per-work-item mixes combined weighted by
// each kernel's static instruction share, as a static analyzer summing over
// the program's kernels would.
func AppStaticFeatures(profiles []kernels.Profile) kernels.InstructionMix {
	var agg kernels.InstructionMix
	for _, p := range profiles {
		agg = agg.Add(p.Mix)
	}
	return agg
}
