// Package core implements the paper's primary contribution: domain-specific
// energy and runtime modeling (§4). A domain-specific model is trained per
// application on that application's own *input characteristics* — the grid
// dimensions for Cronos, the (ligands, fragments, atoms) triple for LiGen
// (Table 2) — paired with the frequency configuration, against measured
// execution time and energy (training phase, Figure 11). At prediction time
// the two models produce time and energy for every frequency, from which
// speedup and normalized energy are derived against the predicted default-
// frequency values, and the Pareto-optimal frequency set is extracted
// (prediction phase, Figure 12).
package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"dsenergy/internal/ml"
	"dsenergy/internal/pareto"
	"dsenergy/internal/synergy"
)

// Schema names the domain-specific features of one application (Table 2).
type Schema struct {
	App      string
	Features []string
}

// CronosSchema is the magnetohydrodynamics feature set: the grid dimensions.
func CronosSchema() Schema {
	return Schema{App: "cronos", Features: []string{"f_grid_x", "f_grid_y", "f_grid_z"}}
}

// LiGenSchema is the drug-discovery feature set: the library shape.
func LiGenSchema() Schema {
	return Schema{App: "ligen", Features: []string{"f_ligands", "f_fragments", "f_atoms"}}
}

// Sample is one training observation s = (f⃗, c, t, e) as defined in §4.2.2:
// input features, frequency configuration, measured time and energy.
type Sample struct {
	Features []float64
	FreqMHz  int
	TimeS    float64
	EnergyJ  float64
}

// Dataset is the training set D = {s} of one application on one device.
type Dataset struct {
	Schema          Schema
	Device          string
	BaselineFreqMHz int
	Samples         []Sample
}

// FeatureKey renders a feature vector as a printable label ("160x64x64").
// It is for display only: code that asks whether two inputs are the same
// compares them with SameInput or AppendInputKey, which agree with
// FeatureKey equality without formatting a float.
func FeatureKey(features []float64) string {
	parts := make([]string, len(features))
	for i, f := range features {
		parts[i] = strconv.FormatFloat(f, 'g', -1, 64)
	}
	return strings.Join(parts, "x")
}

// canonicalNaN is the one bit pattern every NaN keys as (math.NaN's).
const canonicalNaN = 0x7FF8000000000001

// inputBits is v's identity bits: its math.Float64bits, with every NaN
// mapped to canonicalNaN.
func inputBits(v float64) uint64 {
	if math.IsNaN(v) {
		return canonicalNaN
	}
	return math.Float64bits(v)
}

// AppendInputKey appends the identity of each value to buf, eight bytes per
// value, and returns the extended buffer. Two vectors append the same bytes
// exactly when FeatureKey gives them the same label: -0 and 0 differ, every
// NaN is one key, and vectors of different widths differ in length. A map
// keyed by the bytes (indexed as m[string(b)], which does not allocate)
// groups inputs the way the leave-one-input-out protocol does.
func AppendInputKey(buf []byte, values ...float64) []byte {
	for _, v := range values {
		buf = binary.LittleEndian.AppendUint64(buf, inputBits(v))
	}
	return buf
}

// SameInput reports whether a and b are the same input: equal width and,
// value by value, equal bits or both NaN. It agrees with FeatureKey
// equality, without formatting.
func SameInput(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if inputBits(a[i]) != inputBits(b[i]) {
			return false
		}
	}
	return true
}

// Inputs returns the distinct input feature vectors of the dataset, in
// first-appearance order.
func (d *Dataset) Inputs() [][]float64 {
	seen := map[string]bool{}
	var out [][]float64
	var key []byte
	for _, s := range d.Samples {
		key = AppendInputKey(key[:0], s.Features...)
		if !seen[string(key)] {
			seen[string(key)] = true
			out = append(out, append([]float64(nil), s.Features...))
		}
	}
	return out
}

// InputSamples returns the samples whose features match exactly, sorted by
// frequency.
func (d *Dataset) InputSamples(features []float64) []Sample {
	var out []Sample
	for _, s := range d.Samples {
		if SameInput(s.Features, features) {
			out = append(out, s)
		}
	}
	slices.SortFunc(out, func(a, b Sample) int { return cmp.Compare(a.FreqMHz, b.FreqMHz) })
	return out
}

// FeaturedWorkload couples an executable workload with its domain-specific
// feature vector, the unit the dataset builder sweeps.
type FeaturedWorkload struct {
	Workload synergy.Workload
	Features []float64
}

// BuildConfig controls dataset acquisition.
type BuildConfig struct {
	// Freqs is the frequency sweep (nil = all device frequencies, as the
	// paper does on the V100's 196 clocks).
	Freqs []int
	// Reps is the repetitions per measurement (0 selects the paper's 5).
	Reps int
	// Workers bounds the measurement goroutines (0 = GOMAXPROCS, 1 = serial).
	// The dataset is byte-identical for every value: all workload×frequency
	// tasks draw pre-split noise streams fixed before the pool starts.
	Workers int
}

// BuildDataset runs the training-phase workflow of Figure 11: every workload
// is executed at every frequency (averaged over repetitions) and the
// observations are collected into a dataset. All workload×frequency
// measurements go through one shared worker pool (synergy.SweepSet), which
// is what lets the paper-scale sweep — hundreds of clocks per workload —
// use every core while producing the same bytes as the serial loop.
func BuildDataset(q *synergy.Queue, schema Schema, wls []FeaturedWorkload, cfg BuildConfig) (*Dataset, error) {
	if len(wls) == 0 {
		return nil, fmt.Errorf("core: no workloads to measure")
	}
	freqs := cfg.Freqs
	if freqs == nil {
		freqs = q.SupportedFreqsMHz()
	}
	reps := cfg.Reps
	if reps <= 0 {
		reps = 5
	}
	ds := &Dataset{
		Schema:          schema,
		Device:          q.Spec().Name,
		BaselineFreqMHz: q.BaselineFreqMHz(),
	}
	workloads := make([]synergy.Workload, len(wls))
	for i, fw := range wls {
		if len(fw.Features) != len(schema.Features) {
			return nil, fmt.Errorf("core: workload %s has %d features, schema %s wants %d",
				fw.Workload.Name(), len(fw.Features), schema.App, len(schema.Features))
		}
		workloads[i] = fw.Workload
	}
	sets, err := synergy.SweepSet(q, workloads, freqs, reps, cfg.Workers)
	if err != nil {
		return nil, err
	}
	for wi, fw := range wls {
		for _, m := range sets[wi] {
			ds.Samples = append(ds.Samples, Sample{
				Features: append([]float64(nil), fw.Features...),
				FreqMHz:  m.FreqMHz,
				TimeS:    m.TimeS,
				EnergyJ:  m.EnergyJ,
			})
		}
	}
	return ds, nil
}

// Model is a trained domain-specific model pair. In raw mode (Train) the two
// regressors are T(f⃗, c) for execution time and E(f⃗, c) for energy
// consumption (Figure 11 outputs 4 and 5). In normalized mode
// (TrainNormalized) they predict speedup and normalized energy directly, the
// formulation §5.2.1 uses for the accuracy evaluation: normalized targets
// share a common scale across inputs, which is what lets the model
// interpolate to unseen inputs within a percent.
type Model struct {
	Schema          Schema
	Device          string
	BaselineFreqMHz int
	// Normalized reports whether the regressors output (speedup,
	// normalized energy) rather than (time, energy).
	Normalized  bool
	timeModel   ml.Regressor
	energyModel ml.Regressor
}

// Train fits the two models on the dataset with the given algorithm (the
// paper compares Linear, Lasso, SVR-RBF and Random Forest and selects the
// forest; pass ml.Spec{Algorithm:"forest"} for the paper configuration).
func Train(ds *Dataset, spec ml.Spec, seed uint64) (*Model, error) {
	if len(ds.Samples) == 0 {
		return nil, fmt.Errorf("core: empty dataset")
	}
	X := make([][]float64, len(ds.Samples))
	yt := make([]float64, len(ds.Samples))
	ye := make([]float64, len(ds.Samples))
	for i, s := range ds.Samples {
		X[i] = sampleRow(s.Features, s.FreqMHz)
		yt[i] = s.TimeS
		ye[i] = s.EnergyJ
	}
	tm, err := spec.New(seed)
	if err != nil {
		return nil, err
	}
	if err := tm.Fit(X, yt); err != nil {
		return nil, fmt.Errorf("core: fitting time model: %w", err)
	}
	em, err := spec.New(seed + 1)
	if err != nil {
		return nil, err
	}
	if err := em.Fit(X, ye); err != nil {
		return nil, fmt.Errorf("core: fitting energy model: %w", err)
	}
	return &Model{
		Schema:          ds.Schema,
		Device:          ds.Device,
		BaselineFreqMHz: ds.BaselineFreqMHz,
		timeModel:       tm,
		energyModel:     em,
	}, nil
}

// TrainNormalized fits the two models on per-input normalized targets:
// speedup t(baseline)/t(c) and normalized energy e(c)/e(baseline), as
// §5.2.1 formulates the models for the accuracy comparison. Every input must
// include the baseline frequency in its sweep.
func TrainNormalized(ds *Dataset, spec ml.Spec, seed uint64) (*Model, error) {
	if len(ds.Samples) == 0 {
		return nil, fmt.Errorf("core: empty dataset")
	}
	var X [][]float64
	var ySp, yNe []float64
	for _, input := range ds.Inputs() {
		curves, err := ds.TrueCurves(input)
		if err != nil {
			return nil, err
		}
		for _, c := range curves {
			X = append(X, sampleRow(input, c.FreqMHz))
			ySp = append(ySp, c.Speedup)
			yNe = append(yNe, c.NormEnergy)
		}
	}
	sm, err := spec.New(seed)
	if err != nil {
		return nil, err
	}
	if err := sm.Fit(X, ySp); err != nil {
		return nil, fmt.Errorf("core: fitting speedup model: %w", err)
	}
	em, err := spec.New(seed + 1)
	if err != nil {
		return nil, err
	}
	if err := em.Fit(X, yNe); err != nil {
		return nil, fmt.Errorf("core: fitting normalized-energy model: %w", err)
	}
	return &Model{
		Schema:          ds.Schema,
		Device:          ds.Device,
		BaselineFreqMHz: ds.BaselineFreqMHz,
		Normalized:      true,
		timeModel:       sm,
		energyModel:     em,
	}, nil
}

// sampleRow assembles a model input row from features and frequency.
func sampleRow(features []float64, freqMHz int) []float64 {
	return append(append([]float64(nil), features...), float64(freqMHz))
}

// CurvePoint is a derived (speedup, normalized energy) prediction at one
// frequency.
type CurvePoint struct {
	FreqMHz    int
	Speedup    float64
	NormEnergy float64
	TimeS      float64
	EnergyJ    float64
}

// PredictCurves runs the prediction phase of Figure 12: model outputs for
// every frequency, normalized against the predicted values at the baseline
// (default) frequency. In raw mode speedup and normalized energy derive from
// predicted time/energy; in normalized mode the regressors output them
// directly and the baseline normalization squares up residual offset.
//
// It is AppendCurve into a fresh slice, and panics with that method's
// error when features does not match the schema width: a caller passing
// features it did not build itself should call AppendCurve.
func (m *Model) PredictCurves(features []float64, freqs []int) []CurvePoint {
	curve, err := m.AppendCurve(nil, features, freqs)
	if err != nil {
		panic(err)
	}
	return curve
}

// FeatureDim is the width of the feature vectors the model was trained on
// (the frequency column is appended internally and not counted).
func (m *Model) FeatureDim() int {
	return len(m.Schema.Features)
}

// SmallMenu is the longest frequency menu AppendCurve predicts without
// allocating beyond growing dst: its sweep, the baseline clock then the
// menu, fits the stack buffers here and in ml's forest kernel. A caller
// whose dst has room for SmallMenu points predicts such a curve without
// allocating.
const SmallMenu = 31

// AppendCurve appends PredictCurves' curve for one input to dst and
// returns the extended slice. Each regressor is evaluated with
// ml.PredictSweep over the sweep (baseline clock, then freqs), so forests
// walk each tree once for the whole menu; every value is bit-identical to
// the regressor's Predict on the assembled (features, clock) row. An input
// whose width disagrees with the schema is rejected with the error
// PredictCurvesBatch gives a batch of that one input.
func (m *Model) AppendCurve(dst []CurvePoint, features []float64, freqs []int) ([]CurvePoint, error) {
	if err := m.checkWidth(0, features); err != nil {
		return nil, err
	}
	n := len(freqs) + 1
	var buf [3 * (SmallMenu + 1)]float64
	bufs := buf[:]
	if n > SmallMenu+1 {
		bufs = make([]float64, 3*n)
	}
	sweep, times, energies := bufs[:n], bufs[n:2*n], bufs[2*n:3*n]
	sweep[0] = float64(m.BaselineFreqMHz)
	for j, f := range freqs {
		sweep[j+1] = float64(f)
	}
	if err := ml.PredictSweep(m.timeModel, features, sweep, times); err != nil {
		return nil, fmt.Errorf("core: time model: %w", err)
	}
	if err := ml.PredictSweep(m.energyModel, features, sweep, energies); err != nil {
		return nil, fmt.Errorf("core: energy model: %w", err)
	}
	return m.deriveCurve(dst, times, energies, freqs), nil
}

// checkWidth rejects input i of a batch when its width is not the schema's.
func (m *Model) checkWidth(i int, features []float64) error {
	if d := m.FeatureDim(); len(features) != d {
		return fmt.Errorf("core: input %d has %d features, schema %s wants %d",
			i, len(features), m.Schema.App, d)
	}
	return nil
}

// PredictCurvesBatch evaluates PredictCurves for many inputs against one
// frequency menu, rejecting any input whose width disagrees with the schema
// before predicting any. The curves are AppendCurve's, laid end to end in
// one backing array, so a batch makes two allocations on a menu of at most
// SmallMenu clocks.
func (m *Model) PredictCurvesBatch(inputs [][]float64, freqs []int) ([][]CurvePoint, error) {
	for i, in := range inputs {
		if err := m.checkWidth(i, in); err != nil {
			return nil, err
		}
	}
	points := make([]CurvePoint, 0, len(inputs)*len(freqs))
	out := make([][]CurvePoint, len(inputs))
	for i, in := range inputs {
		start := len(points)
		var err error
		if points, err = m.AppendCurve(points, in, freqs); err != nil {
			return nil, err
		}
		out[i] = points[start:len(points):len(points)]
	}
	return out, nil
}

// deriveCurve normalizes one input's predicted (time, energy) block —
// baseline row first, then one row per sweep frequency — into curve points
// appended to dst.
func (m *Model) deriveCurve(dst []CurvePoint, times, energies []float64, freqs []int) []CurvePoint {
	dst = slices.Grow(dst, len(freqs))
	if m.Normalized {
		baseSp, baseNe := times[0], energies[0]
		// Normalized targets sit near 1 by construction; a near-zero or
		// negative predicted baseline means the regressor extrapolated
		// far outside its training range (linear models do on held-out
		// extreme inputs). Fall back to 1 rather than amplifying the
		// breakdown through the division.
		if baseSp <= 0.05 {
			baseSp = 1
		}
		if baseNe <= 0.05 {
			baseNe = 1
		}
		for i, f := range freqs {
			dst = append(dst, CurvePoint{
				FreqMHz:    f,
				Speedup:    times[i+1] / baseSp,
				NormEnergy: energies[i+1] / baseNe,
			})
		}
		return dst
	}
	baseT, baseE := times[0], energies[0]
	if baseT <= 0 {
		baseT = 1
	}
	if baseE <= 0 {
		baseE = 1
	}
	for i, f := range freqs {
		t, e := times[i+1], energies[i+1]
		sp := 0.0
		if t > 0 {
			sp = baseT / t
		}
		dst = append(dst, CurvePoint{FreqMHz: f, Speedup: sp, NormEnergy: e / baseE, TimeS: t, EnergyJ: e})
	}
	return dst
}

// PredictPareto returns the predicted Pareto-optimal frequency
// configurations (Figure 12's final step).
func (m *Model) PredictPareto(features []float64, freqs []int) []pareto.Point {
	curves := m.PredictCurves(features, freqs)
	pts := make([]pareto.Point, len(curves))
	for i, c := range curves {
		pts[i] = pareto.Point{FreqMHz: c.FreqMHz, Speedup: c.Speedup, NormEnergy: c.NormEnergy}
	}
	return pareto.Front(pts)
}

// TrueCurves derives the measured speedup / normalized-energy curve of one
// input from the dataset itself (the ground truth of Figure 13). The
// baseline is the measurement at the dataset's baseline frequency; it must
// be part of the sweep.
func (d *Dataset) TrueCurves(features []float64) ([]CurvePoint, error) {
	samples := d.InputSamples(features)
	if len(samples) == 0 {
		return nil, fmt.Errorf("core: no samples for input %v", features)
	}
	var base *Sample
	for i := range samples {
		if samples[i].FreqMHz == d.BaselineFreqMHz {
			base = &samples[i]
			break
		}
	}
	if base == nil {
		return nil, fmt.Errorf("core: baseline frequency %d MHz not in sweep for input %v",
			d.BaselineFreqMHz, features)
	}
	out := make([]CurvePoint, 0, len(samples))
	for _, s := range samples {
		out = append(out, CurvePoint{
			FreqMHz:    s.FreqMHz,
			Speedup:    base.TimeS / s.TimeS,
			NormEnergy: s.EnergyJ / base.EnergyJ,
			TimeS:      s.TimeS,
			EnergyJ:    s.EnergyJ,
		})
	}
	return out, nil
}

// TruePareto returns the measured Pareto-optimal frequency set of one input.
func (d *Dataset) TruePareto(features []float64) ([]pareto.Point, error) {
	curves, err := d.TrueCurves(features)
	if err != nil {
		return nil, err
	}
	pts := make([]pareto.Point, len(curves))
	for i, c := range curves {
		pts[i] = pareto.Point{FreqMHz: c.FreqMHz, Speedup: c.Speedup, NormEnergy: c.NormEnergy}
	}
	return pareto.Front(pts), nil
}
