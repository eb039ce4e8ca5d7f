package core

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"dsenergy/internal/cronos"
	"dsenergy/internal/gpusim"
	"dsenergy/internal/ligen"
	"dsenergy/internal/ml"
	"dsenergy/internal/synergy"
)

// everyNth subsamples a frequency table to keep tests fast; the full sweep is
// exercised by the benchmark harness.
func everyNth(fs []int, n int) []int {
	var out []int
	for i := 0; i < len(fs); i += n {
		out = append(out, fs[i])
	}
	// Always include the top frequency.
	if out[len(out)-1] != fs[len(fs)-1] {
		out = append(out, fs[len(fs)-1])
	}
	return out
}

// withBaseline ensures the device baseline frequency is part of the sweep.
func withBaseline(fs []int, base int) []int {
	for _, f := range fs {
		if f == base {
			return fs
		}
	}
	out := append([]int(nil), fs...)
	for i, f := range out {
		if f > base {
			return append(out[:i], append([]int{base}, out[i:]...)...)
		}
	}
	return append(out, base)
}

func cronosDataset(t *testing.T, q *synergy.Queue, grids [][3]int) *Dataset {
	t.Helper()
	var wls []FeaturedWorkload
	for _, g := range grids {
		w, err := cronos.NewWorkload(g[0], g[1], g[2], 8)
		if err != nil {
			t.Fatal(err)
		}
		wls = append(wls, FeaturedWorkload{
			Workload: w,
			Features: []float64{float64(g[0]), float64(g[1]), float64(g[2])},
		})
	}
	freqs := withBaseline(everyNth(q.Spec().FreqsAbove(0.4), 8), q.BaselineFreqMHz())
	ds, err := BuildDataset(q, CronosSchema(), wls, BuildConfig{Freqs: freqs, Reps: 3})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func testQueue(t *testing.T) *synergy.Queue {
	t.Helper()
	p, err := synergy.NewPlatform(101, gpusim.V100Spec())
	if err != nil {
		t.Fatal(err)
	}
	return p.Queues()[0]
}

var paperGrids = [][3]int{{10, 4, 4}, {20, 8, 8}, {40, 16, 16}, {80, 32, 32}, {160, 64, 64}}

func TestBuildDatasetShape(t *testing.T) {
	q := testQueue(t)
	ds := cronosDataset(t, q, paperGrids[:3])
	if len(ds.Inputs()) != 3 {
		t.Fatalf("want 3 distinct inputs, got %d", len(ds.Inputs()))
	}
	nFreqs := len(withBaseline(everyNth(q.Spec().FreqsAbove(0.4), 8), q.BaselineFreqMHz()))
	if want := 3 * nFreqs; len(ds.Samples) != want {
		t.Fatalf("want %d samples, got %d", want, len(ds.Samples))
	}
	for _, s := range ds.Samples {
		if s.TimeS <= 0 || s.EnergyJ <= 0 {
			t.Fatalf("non-positive measurement %+v", s)
		}
	}
}

func TestBuildDatasetFeatureMismatch(t *testing.T) {
	q := testQueue(t)
	w, _ := cronos.NewWorkload(8, 4, 4, 2)
	_, err := BuildDataset(q, CronosSchema(), []FeaturedWorkload{
		{Workload: w, Features: []float64{1}},
	}, BuildConfig{Freqs: []int{q.BaselineFreqMHz()}, Reps: 1})
	if err == nil {
		t.Error("expected error for feature-count mismatch")
	}
}

func TestTrueCurvesBaselineIsUnity(t *testing.T) {
	q := testQueue(t)
	ds := cronosDataset(t, q, paperGrids[:2])
	curves, err := ds.TrueCurves([]float64{10, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range curves {
		if c.FreqMHz == ds.BaselineFreqMHz {
			found = true
			if c.Speedup != 1 || c.NormEnergy != 1 {
				t.Errorf("baseline point not (1,1): %+v", c)
			}
		}
	}
	if !found {
		t.Error("baseline frequency missing from truth curves")
	}
}

func TestTrainAndPredictCurves(t *testing.T) {
	q := testQueue(t)
	ds := cronosDataset(t, q, paperGrids)
	m, err := Train(ds, ml.Spec{Algorithm: "forest", Params: map[string]float64{"n_estimators": 30}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// In-sample prediction should track the measurements closely.
	input := []float64{40, 16, 16}
	acc, err := ScoreModel(ds, m, input, input)
	if err != nil {
		t.Fatal(err)
	}
	if acc.SpeedupMAPE > 0.02 {
		t.Errorf("in-sample speedup MAPE %.4f, want < 0.02", acc.SpeedupMAPE)
	}
	if acc.NormEnergyMAPE > 0.02 {
		t.Errorf("in-sample energy MAPE %.4f, want < 0.02", acc.NormEnergyMAPE)
	}
}

func TestLeaveOneInputOutAccuracy(t *testing.T) {
	// The headline property of the domain-specific models: held-out inputs
	// are predicted within a few percent (paper: 0.4% - 2.2%).
	q := testQueue(t)
	ds := cronosDataset(t, q, paperGrids)
	accs, err := LeaveOneInputOut(ds, ml.Spec{Algorithm: "forest", Params: map[string]float64{"n_estimators": 30}}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(accs) != len(paperGrids) {
		t.Fatalf("want %d accuracies, got %d", len(paperGrids), len(accs))
	}
	for _, a := range accs {
		if a.SpeedupMAPE > 0.06 {
			t.Errorf("input %s: speedup MAPE %.4f too high", a.Label, a.SpeedupMAPE)
		}
		if a.NormEnergyMAPE > 0.06 {
			t.Errorf("input %s: energy MAPE %.4f too high", a.Label, a.NormEnergyMAPE)
		}
	}
}

func TestPredictParetoSubsetOfSweep(t *testing.T) {
	q := testQueue(t)
	ds := cronosDataset(t, q, paperGrids[:3])
	m, err := Train(ds, ml.Spec{Algorithm: "forest", Params: map[string]float64{"n_estimators": 20}}, 5)
	if err != nil {
		t.Fatal(err)
	}
	freqs := withBaseline(everyNth(q.Spec().FreqsAbove(0.4), 8), q.BaselineFreqMHz())
	front := m.PredictPareto([]float64{20, 8, 8}, freqs)
	if len(front) == 0 {
		t.Fatal("empty predicted Pareto front")
	}
	inSweep := map[int]bool{}
	for _, f := range freqs {
		inSweep[f] = true
	}
	for _, p := range front {
		if !inSweep[p.FreqMHz] {
			t.Errorf("front frequency %d not in sweep", p.FreqMHz)
		}
		if math.IsNaN(p.Speedup) || math.IsNaN(p.NormEnergy) {
			t.Errorf("front point not finite: %+v", p)
		}
	}
}

func TestSchemasMatchTable2(t *testing.T) {
	c := CronosSchema()
	if len(c.Features) != 3 || c.Features[0] != "f_grid_x" {
		t.Errorf("cronos schema %v", c.Features)
	}
	l := LiGenSchema()
	if len(l.Features) != 3 || l.Features[0] != "f_ligands" {
		t.Errorf("ligen schema %v", l.Features)
	}
}

func TestFeatureKeyStable(t *testing.T) {
	if FeatureKey([]float64{10, 4, 4}) != "10x4x4" {
		t.Errorf("feature key %q", FeatureKey([]float64{10, 4, 4}))
	}
}

func TestLiGenDatasetRoundTrip(t *testing.T) {
	q := testQueue(t)
	inputs := []ligen.Input{
		{Ligands: 256, Atoms: 31, Fragments: 4},
		{Ligands: 1024, Atoms: 31, Fragments: 4},
		{Ligands: 256, Atoms: 89, Fragments: 4},
		{Ligands: 256, Atoms: 31, Fragments: 16},
	}
	var wls []FeaturedWorkload
	for _, in := range inputs {
		w, err := ligen.NewWorkload(in)
		if err != nil {
			t.Fatal(err)
		}
		wls = append(wls, FeaturedWorkload{
			Workload: w,
			Features: []float64{float64(in.Ligands), float64(in.Fragments), float64(in.Atoms)},
		})
	}
	freqs := withBaseline(everyNth(q.Spec().FreqsAbove(0.4), 10), q.BaselineFreqMHz())
	ds, err := BuildDataset(q, LiGenSchema(), wls, BuildConfig{Freqs: freqs, Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	accs, err := LeaveOneInputOut(ds, ml.Spec{Algorithm: "forest", Params: map[string]float64{"n_estimators": 20}}, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range accs {
		if a.SpeedupMAPE > 0.08 || a.NormEnergyMAPE > 0.08 {
			t.Errorf("ligen input %s: MAPE (%.4f, %.4f) too high", a.Label, a.SpeedupMAPE, a.NormEnergyMAPE)
		}
	}
}

func TestMethodologyPortableToUnseenDevice(t *testing.T) {
	// §6: the approach is "architecture-independent" — it only needs the
	// device's frequency range. Run the full pipeline on the A100, which
	// the paper never touched, and check the accuracy regime holds.
	p, err := synergy.NewPlatform(303, gpusim.A100Spec())
	if err != nil {
		t.Fatal(err)
	}
	q := p.Queues()[0]
	ds := cronosDataset(t, q, paperGrids)
	accs, err := LeaveOneInputOut(ds, ml.Spec{Algorithm: "forest", Params: map[string]float64{"n_estimators": 25}}, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The A100's 40 MiB LLC moves the cache-spill transition right between
	// the two largest grids, so their held-out errors run higher than on
	// the V100 — still clearly in the domain-specific regime, far from the
	// general-purpose model's 10-20%.
	for _, a := range accs {
		if a.SpeedupMAPE > 0.10 || a.NormEnergyMAPE > 0.10 {
			t.Errorf("A100 input %s: MAPE (%.4f, %.4f) outside the domain-specific regime",
				a.Label, a.SpeedupMAPE, a.NormEnergyMAPE)
		}
	}
}

// failingWorkload returns an error on its nth execution, for failure
// injection through the measurement pipeline. The sweep runs it from
// several workers at once, so the run count is atomic.
type failingWorkload struct {
	failAfter int64
	runs      *atomic.Int64
}

func (w failingWorkload) Name() string { return "failing" }
func (w failingWorkload) RunOn(q *synergy.Queue) (float64, float64, error) {
	if w.runs.Add(1) > w.failAfter {
		return 0, 0, errInjected
	}
	return 1, 1, nil
}

var errInjected = fmt.Errorf("injected measurement failure")

func TestBuildDatasetPropagatesWorkloadErrors(t *testing.T) {
	q := testQueue(t)
	var runs atomic.Int64
	_, err := BuildDataset(q, CronosSchema(), []FeaturedWorkload{{
		Workload: failingWorkload{failAfter: 3, runs: &runs},
		Features: []float64{1, 1, 1},
	}}, BuildConfig{Freqs: []int{q.BaselineFreqMHz(), q.Spec().FMaxMHz()}, Reps: 5})
	if err == nil {
		t.Fatal("expected injected failure to propagate")
	}
	if !strings.Contains(err.Error(), "injected") {
		t.Errorf("error lost its cause: %v", err)
	}
	// The baseline clock must be restored even after a failed sweep.
	if q.PinnedFreqMHz() != 0 {
		t.Error("failed measurement leaked a pinned frequency")
	}
}

func TestFeatureKeyInjectiveProperty(t *testing.T) {
	// Property: distinct feature vectors get distinct keys (the grouping
	// correctness of the leave-one-input-out protocol rests on this).
	f := func(a, b [3]int16) bool {
		fa := []float64{float64(a[0]), float64(a[1]), float64(a[2])}
		fb := []float64{float64(b[0]), float64(b[1]), float64(b[2])}
		same := a == b
		return (FeatureKey(fa) == FeatureKey(fb)) == same
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}

	// SameInput and AppendInputKey group inputs without formatting; they
	// must agree with FeatureKey equality, including on the values where
	// bit equality and == part ways: signed zeros, NaN payloads, infinities
	// and subnormals, at widths 0 to 2.
	special := []float64{
		0, math.Copysign(0, -1), 1, -1, 160,
		math.NaN(), math.Float64frombits(0x7ff0000000000abc), math.Float64frombits(0xfff8000000000000),
		math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff),
	}
	vectors := [][]float64{{}}
	for _, x := range special {
		vectors = append(vectors, []float64{x})
		for _, y := range special {
			vectors = append(vectors, []float64{x, y})
		}
	}
	labels := make([]string, len(vectors))
	for i, v := range vectors {
		labels[i] = FeatureKey(v)
	}
	for i, a := range vectors {
		ka := AppendInputKey(nil, a...)
		for j, b := range vectors {
			want := labels[i] == labels[j]
			if got := SameInput(a, b); got != want {
				t.Errorf("SameInput(%v, %v) = %v, FeatureKey equality %v", a, b, got, want)
			}
			if got := bytes.Equal(ka, AppendInputKey([]byte("stale"), b...)[5:]); got != want {
				t.Errorf("AppendInputKey equality of %v and %v = %v, FeatureKey equality %v", a, b, got, want)
			}
		}
	}
}

func TestPredictCurvesBatchMatchesPredictCurves(t *testing.T) {
	q := testQueue(t)
	ds := cronosDataset(t, q, paperGrids[:3])
	m, err := Train(ds, ml.Spec{Algorithm: "forest", Params: map[string]float64{"n_estimators": 20}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	freqs := everyNth(q.Spec().FreqsAbove(0.4), 16)
	inputs := [][]float64{{10, 4, 4}, {20, 8, 8}, {40, 16, 16}, {15, 6, 6}}
	batch, err := m.PredictCurvesBatch(inputs, freqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range inputs {
		single := m.PredictCurves(in, freqs)
		if len(batch[i]) != len(single) {
			t.Fatalf("input %d: batch has %d points, single %d", i, len(batch[i]), len(single))
		}
		for j := range single {
			b, s := batch[i][j], single[j]
			if b.FreqMHz != s.FreqMHz ||
				math.Float64bits(b.Speedup) != math.Float64bits(s.Speedup) ||
				math.Float64bits(b.NormEnergy) != math.Float64bits(s.NormEnergy) ||
				math.Float64bits(b.TimeS) != math.Float64bits(s.TimeS) ||
				math.Float64bits(b.EnergyJ) != math.Float64bits(s.EnergyJ) {
				t.Fatalf("input %d freq %d: batch %+v != single %+v", i, b.FreqMHz, b, s)
			}
		}
	}
}

// TestPredictCurvesMatchPerRowReference pins the curve path against a
// per-row reference: one assembled (features, clock) row per clock,
// baseline row first, through each model's Predict. Raw and normalized
// forests are checked on menus that hold the baseline clock, leave it out,
// and repeat clocks out of order.
func TestPredictCurvesMatchPerRowReference(t *testing.T) {
	q := testQueue(t)
	ds := cronosDataset(t, q, paperGrids[:4])
	spec := ml.Spec{Algorithm: "forest", Params: map[string]float64{"n_estimators": 20}}
	raw, err := Train(ds, spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	norm, err := TrainNormalized(ds, spec, 6)
	if err != nil {
		t.Fatal(err)
	}
	base := q.BaselineFreqMHz()
	band := everyNth(q.Spec().FreqsAbove(0.4), 12)
	var without []int
	for _, f := range band {
		if f != base {
			without = append(without, f)
		}
	}
	menus := map[string][]int{
		"baseline inside":  withBaseline(band, base),
		"baseline outside": without,
		"duplicated":       append([]int{base, band[len(band)-1], base, band[0]}, band...),
	}
	inputs := [][]float64{{10, 4, 4}, {20, 8, 8}, {40, 16, 16}, {15, 6, 6}, {200, 90, 90}}
	for _, m := range []*Model{raw, norm} {
		for name, freqs := range menus {
			batch, err := m.PredictCurvesBatch(inputs, freqs)
			if err != nil {
				t.Fatal(err)
			}
			for i, in := range inputs {
				rows := [][]float64{sampleRow(in, m.BaselineFreqMHz)}
				for _, f := range freqs {
					rows = append(rows, sampleRow(in, f))
				}
				times, energies := make([]float64, len(rows)), make([]float64, len(rows))
				for j, row := range rows {
					times[j], energies[j] = m.timeModel.Predict(row), m.energyModel.Predict(row)
				}
				want := m.deriveCurve(nil, times, energies, freqs)
				// AppendCurve extends a non-empty dst: its prefix must
				// survive, and the curve follows it.
				prefix := []CurvePoint{{FreqMHz: -1, Speedup: math.NaN()}, {FreqMHz: -2, EnergyJ: math.Inf(1)}}
				appended, err := m.AppendCurve(slices.Clone(prefix), in, freqs)
				if err != nil {
					t.Fatal(err)
				}
				if len(appended) < len(prefix) || !slices.EqualFunc(appended[:len(prefix)], prefix, sameCurvePoint) {
					t.Fatalf("normalized=%v %s input %v: AppendCurve lost its dst prefix: %+v", m.Normalized, name, in, appended)
				}
				for label, got := range map[string][]CurvePoint{
					"batch":       batch[i],
					"single":      m.PredictCurves(in, freqs),
					"AppendCurve": appended[len(prefix):],
				} {
					if len(got) != len(want) {
						t.Fatalf("normalized=%v %s %s input %v: %d points, want %d", m.Normalized, name, label, in, len(got), len(want))
					}
					for j := range want {
						if g, w := got[j], want[j]; !sameCurvePoint(g, w) {
							t.Fatalf("normalized=%v %s %s input %v point %d: %+v, per-row reference %+v",
								m.Normalized, name, label, in, j, g, w)
						}
					}
				}
			}
		}
	}
}

// sameCurvePoint compares two curve points bit for bit.
func sameCurvePoint(a, b CurvePoint) bool {
	return a.FreqMHz == b.FreqMHz &&
		math.Float64bits(a.Speedup) == math.Float64bits(b.Speedup) &&
		math.Float64bits(a.NormEnergy) == math.Float64bits(b.NormEnergy) &&
		math.Float64bits(a.TimeS) == math.Float64bits(b.TimeS) &&
		math.Float64bits(a.EnergyJ) == math.Float64bits(b.EnergyJ)
}

// TestPredictCurvesBatchAllocs guards the curve path's allocations for one
// input on a 16-clock menu: the returned slice and its curves' backing
// array. The sweep and prediction buffers live on the stack, and the forest
// kernel allocates nothing.
func TestPredictCurvesBatchAllocs(t *testing.T) {
	q := testQueue(t)
	ds := cronosDataset(t, q, paperGrids[:3])
	m, err := Train(ds, ml.Spec{Algorithm: "forest", Params: map[string]float64{"n_estimators": 20}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	freqs := everyNth(q.Spec().FreqsAbove(0.4), 6)
	if len(freqs) < 16 || len(freqs) > SmallMenu {
		t.Fatalf("menu has %d clocks, want 16 to %d", len(freqs), SmallMenu)
	}
	freqs = freqs[:16]
	in := []float64{20, 8, 8}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := m.PredictCurvesBatch([][]float64{in}, freqs); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 2 {
		t.Fatalf("PredictCurvesBatch allocates %.1f objects for one input, want <= 2", avg)
	}
}

func TestPredictCurvesBatchRejectsMisShapedInputs(t *testing.T) {
	q := testQueue(t)
	ds := cronosDataset(t, q, paperGrids[:2])
	m, err := Train(ds, ml.Spec{Algorithm: "forest", Params: map[string]float64{"n_estimators": 10}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.FeatureDim() != 3 {
		t.Fatalf("FeatureDim = %d, want 3", m.FeatureDim())
	}
	freqs := []int{q.BaselineFreqMHz()}
	for _, bad := range [][][]float64{
		{{10, 4}},             // short
		{{10, 4, 4, 9}},       // wide
		{{10, 4, 4}, {10, 4}}, // mixed
		{nil},                 // empty
	} {
		if _, err := m.PredictCurvesBatch(bad, freqs); err == nil {
			t.Errorf("mis-shaped inputs %v accepted", bad)
		}
	}
	// PredictCurves panics with the batch path's error.
	for _, bad := range [][]float64{{10, 4}, {10, 4, 4, 9}} {
		_, want := m.PredictCurvesBatch([][]float64{bad}, freqs)
		func() {
			defer func() {
				got, _ := recover().(error)
				if got == nil || got.Error() != want.Error() {
					t.Errorf("PredictCurves(%v) panicked with %v, want %v", bad, got, want)
				}
			}()
			m.PredictCurves(bad, freqs)
		}()
	}
}

// syntheticDataset is a small simulator-free dataset: every input runs at
// every clock of a five-step menu, its time a mix of a clock-bound and a
// memory-bound part and its energy a static plus a quadratic dynamic term.
func syntheticDataset(inputs int) *Dataset {
	ds := &Dataset{
		Schema:          Schema{App: "synthetic", Features: []string{"f_size", "f_depth"}},
		Device:          "synthetic",
		BaselineFreqMHz: 1000,
	}
	for i := 0; i < inputs; i++ {
		size, depth := float64(1+i), float64(3+2*i%5)
		mem := 0.2 + 0.15*float64(i%3)
		for _, f := range []int{600, 800, 1000, 1200, 1400} {
			t := size * depth * (mem + (1-mem)*1000/float64(f))
			ds.Samples = append(ds.Samples, Sample{
				Features: []float64{size, depth},
				FreqMHz:  f,
				TimeS:    t,
				EnergyJ:  t * (40 + 6e-5*float64(f)*float64(f)),
			})
		}
	}
	return ds
}

// TestCompareAlgorithmsWorkerInvariance: the comparison fans its
// (algorithm, held-out input) pairs out on one pool, so every worker count
// must give the bits of the serial protocol — each spec's EvalHeldOut
// scores averaged in input order — and the errors of the serial one.
func TestCompareAlgorithmsWorkerInvariance(t *testing.T) {
	ds := syntheticDataset(6)
	specs := []ml.Spec{
		{Algorithm: "linear"},
		{Algorithm: "lasso", Params: map[string]float64{"alpha": 0.01}},
		{Algorithm: "svr", Params: map[string]float64{"C": 10, "epsilon": 0.01}},
		{Algorithm: "forest"},
	}
	const seed = 11
	want := make([]AlgorithmScore, len(specs))
	for i, spec := range specs {
		var ss, se float64
		inputs := ds.Inputs()
		for _, input := range inputs {
			acc, err := EvalHeldOut(ds, spec, seed, input)
			if err != nil {
				t.Fatal(err)
			}
			ss += acc.SpeedupMAPE
			se += acc.NormEnergyMAPE
		}
		n := float64(len(inputs))
		want[i] = AlgorithmScore{Spec: spec, MeanSpeedupMAPE: ss / n, MeanNormEnergyMAPE: se / n}
	}
	for _, workers := range []int{1, 2, 3, 8} {
		got, err := CompareAlgorithmsParallel(ds, specs, seed, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d scores, want %d", workers, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Spec.Algorithm != w.Spec.Algorithm ||
				math.Float64bits(g.MeanSpeedupMAPE) != math.Float64bits(w.MeanSpeedupMAPE) ||
				math.Float64bits(g.MeanNormEnergyMAPE) != math.Float64bits(w.MeanNormEnergyMAPE) {
				t.Errorf("workers=%d: %s scores %v/%v, serial protocol %v/%v", workers, w.Spec.Algorithm,
					g.MeanSpeedupMAPE, g.MeanNormEnergyMAPE, w.MeanSpeedupMAPE, w.MeanNormEnergyMAPE)
			}
		}
	}

	if _, err := CompareAlgorithmsParallel(syntheticDataset(1), specs, seed, 2); err == nil || !strings.Contains(err.Error(), ">= 2 inputs") {
		t.Errorf("one-input dataset: error %v, want the >= 2 inputs error", err)
	}
	bad := append(append([]ml.Spec(nil), specs...), ml.Spec{Algorithm: "boosted"})
	if _, err := CompareAlgorithmsParallel(ds, bad, seed, 2); err == nil || !strings.Contains(err.Error(), "boosted") {
		t.Errorf("unknown algorithm: error %v, want one naming it", err)
	}
}
