// Package gpmodel implements the general-purpose energy model the paper
// compares against (Fan et al., "Predictable GPUs Frequency Scaling for
// Energy and Performance", ICPP 2019): a supervised model trained on a suite
// of 106 micro-benchmarks whose inputs are the *static code features* of
// Table 1 plus the frequency configuration, predicting normalized energy and
// speedup for unseen codes without executing them.
//
// Being input-blind is the point: the model sees an application's instruction
// mix, not its workload, so one prediction curve serves every input size.
// That is exactly the limitation the paper's domain-specific models remove.
package gpmodel

import (
	"fmt"

	"dsenergy/internal/kernels"
	"dsenergy/internal/microbench"
	"dsenergy/internal/ml"
	"dsenergy/internal/pareto"
	"dsenergy/internal/synergy"
)

// Model predicts speedup and normalized energy from static code features and
// a frequency configuration.
type Model struct {
	speedup ml.Regressor
	energy  ml.Regressor
	// BaselineFreqMHz is the clock all training targets were normalized to.
	BaselineFreqMHz int
	// TrainedOn names the device whose measurements trained the model.
	TrainedOn string
}

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
// and fits the speedup and normalized-energy models.
func Train(q *synergy.Queue, cfg TrainConfig) (*Model, error) {
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
	spec := cfg.Spec
	if spec.Algorithm == "" {
		spec = ml.Spec{Algorithm: "forest"}
	}
	base := q.BaselineFreqMHz()

	suite := microbench.Suite()
	var X [][]float64
	var ySpeed, yEnergy []float64
	for _, b := range suite {
		w := synergy.Kernels{b.Profile}
		ref, err := synergy.MeasureAt(q, w, base, reps)
		if err != nil {
			return nil, fmt.Errorf("gpmodel: baseline for %s: %w", b.Name, err)
		}
		for _, f := range freqs {
			m, err := synergy.MeasureAt(q, w, f, reps)
			if err != nil {
				return nil, fmt.Errorf("gpmodel: %s at %d MHz: %w", b.Name, f, err)
			}
			X = append(X, featureRow(b.Profile.Mix, f))
			ySpeed = append(ySpeed, ref.TimeS/m.TimeS)
			yEnergy = append(yEnergy, m.EnergyJ/ref.EnergyJ)
		}
	}

	sp, err := spec.New(cfg.Seed)
	if err != nil {
		return nil, err
	}
	if err := sp.Fit(X, ySpeed); err != nil {
		return nil, fmt.Errorf("gpmodel: fitting speedup model: %w", err)
	}
	en, err := spec.New(cfg.Seed + 1)
	if err != nil {
		return nil, err
	}
	if err := en.Fit(X, yEnergy); err != nil {
		return nil, fmt.Errorf("gpmodel: fitting energy model: %w", err)
	}
	return &Model{
		speedup: sp, energy: en,
		BaselineFreqMHz: base,
		TrainedOn:       q.Spec().Name,
	}, nil
}

// featureRow assembles the model input: the ten Table 1 fractions plus the
// frequency configuration.
func featureRow(mix kernels.InstructionMix, freqMHz int) []float64 {
	return append(mix.StaticFeatures(), float64(freqMHz))
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

// CurvePoint is a predicted (speedup, normalized energy) at one frequency.
type CurvePoint struct {
	FreqMHz    int
	Speedup    float64
	NormEnergy float64
}

// PredictCurves evaluates the model for one application mix across freqs.
// The curve is re-normalized so the baseline frequency maps to exactly
// (1.0, 1.0), as the prediction workflow of Figure 12 prescribes.
func (m *Model) PredictCurves(mix kernels.InstructionMix, freqs []int) []CurvePoint {
	// One sweep per regressor, baseline first: ml.PredictSweep walks each
	// tree once for the whole menu, bit-identical per clock to Predict on
	// the featureRow. A width error means the regressors were not fitted
	// on featureRow's layout, which only a bug can cause.
	sweep := make([]float64, len(freqs)+1)
	sweep[0] = float64(m.BaselineFreqMHz)
	for i, f := range freqs {
		sweep[i+1] = float64(f)
	}
	features := mix.StaticFeatures()
	speeds := make([]float64, len(sweep))
	energies := make([]float64, len(sweep))
	if err := ml.PredictSweep(m.speedup, features, sweep, speeds); err != nil {
		panic(fmt.Errorf("gpmodel: speedup model: %w", err))
	}
	if err := ml.PredictSweep(m.energy, features, sweep, energies); err != nil {
		panic(fmt.Errorf("gpmodel: energy model: %w", err))
	}
	baseSpeed, baseEnergy := speeds[0], energies[0]
	if baseSpeed == 0 {
		baseSpeed = 1
	}
	if baseEnergy == 0 {
		baseEnergy = 1
	}
	out := make([]CurvePoint, 0, len(freqs))
	for i, f := range freqs {
		out = append(out, CurvePoint{
			FreqMHz:    f,
			Speedup:    speeds[i+1] / baseSpeed,
			NormEnergy: energies[i+1] / baseEnergy,
		})
	}
	return out
}

// PredictPareto returns the model's predicted Pareto-optimal frequency set.
func (m *Model) PredictPareto(mix kernels.InstructionMix, freqs []int) []pareto.Point {
	curves := m.PredictCurves(mix, freqs)
	pts := make([]pareto.Point, len(curves))
	for i, c := range curves {
		pts[i] = pareto.Point{FreqMHz: c.FreqMHz, Speedup: c.Speedup, NormEnergy: c.NormEnergy}
	}
	return pareto.Front(pts)
}
