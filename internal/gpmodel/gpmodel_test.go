package gpmodel

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"dsenergy/internal/gpusim"
	"dsenergy/internal/kernels"
	"dsenergy/internal/ml"
	"dsenergy/internal/synergy"
)

func trainSmall(t *testing.T) (*Model, *synergy.Queue) {
	t.Helper()
	p, err := synergy.NewPlatform(3, gpusim.V100Spec())
	if err != nil {
		t.Fatal(err)
	}
	q := p.Queues()[0]
	band := q.Spec().FreqsAbove(0.4)
	var freqs []int
	for i := 0; i < len(band); i += 16 {
		freqs = append(freqs, band[i])
	}
	freqs = append(freqs, q.Spec().FMaxMHz())
	m, err := Train(q, TrainConfig{
		Freqs: freqs, Reps: 2,
		Spec: ml.Spec{Algorithm: "forest", Params: map[string]float64{"n_estimators": 15}},
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, q
}

func computeMix() kernels.InstructionMix {
	return kernels.InstructionMix{FloatAdd: 80, FloatMul: 80, IntAdd: 10, GlobalAcc: 4}
}

func TestTrainProducesUsableModel(t *testing.T) {
	m, q := trainSmall(t)
	if m.BaselineFreqMHz != q.BaselineFreqMHz() {
		t.Errorf("baseline %d, want %d", m.BaselineFreqMHz, q.BaselineFreqMHz())
	}
	if m.TrainedOn != "NVIDIA V100" {
		t.Errorf("trained-on %q", m.TrainedOn)
	}
}

func TestPredictCurvesBaselineIsUnity(t *testing.T) {
	m, q := trainSmall(t)
	curves := m.PredictCurves(computeMix(), []int{q.BaselineFreqMHz()})
	if len(curves) != 1 {
		t.Fatal("want one point")
	}
	if curves[0].Speedup != 1 || curves[0].NormEnergy != 1 {
		t.Errorf("baseline prediction (%g, %g), want (1, 1)", curves[0].Speedup, curves[0].NormEnergy)
	}
}

func TestPredictCurvesInputBlind(t *testing.T) {
	// The general-purpose model's defining property: the same static mix
	// yields the same curve regardless of workload size (it has no input
	// channel at all).
	m, q := trainSmall(t)
	freqs := []int{q.Spec().NearestFreqMHz(900), q.BaselineFreqMHz(), q.Spec().FMaxMHz()}
	a := m.PredictCurves(computeMix(), freqs)
	b := m.PredictCurves(computeMix(), freqs)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("prediction not deterministic")
		}
	}
}

func TestPredictComputeMixSpeedsUpWithFrequency(t *testing.T) {
	m, q := trainSmall(t)
	freqs := []int{q.Spec().NearestFreqMHz(900), q.Spec().FMaxMHz()}
	curves := m.PredictCurves(computeMix(), freqs)
	if curves[1].Speedup <= curves[0].Speedup {
		t.Errorf("compute mix speedup not increasing: %g -> %g", curves[0].Speedup, curves[1].Speedup)
	}
}

func TestPredictParetoNonEmptySubset(t *testing.T) {
	m, q := trainSmall(t)
	band := q.Spec().FreqsAbove(0.5)
	front := m.PredictPareto(computeMix(), band)
	if len(front) == 0 {
		t.Fatal("empty predicted front")
	}
	in := map[int]bool{}
	for _, f := range band {
		in[f] = true
	}
	for _, p := range front {
		if !in[p.FreqMHz] {
			t.Errorf("front frequency %d outside sweep", p.FreqMHz)
		}
		if math.IsNaN(p.Speedup) || math.IsNaN(p.NormEnergy) {
			t.Errorf("front point not finite: %+v", p)
		}
	}
}

func TestAppStaticFeaturesAggregates(t *testing.T) {
	p1 := kernels.Profile{Mix: kernels.InstructionMix{FloatAdd: 10}}
	p2 := kernels.Profile{Mix: kernels.InstructionMix{GlobalAcc: 30}}
	agg := AppStaticFeatures([]kernels.Profile{p1, p2})
	if agg.FloatAdd != 10 || agg.GlobalAcc != 30 {
		t.Errorf("aggregation wrong: %+v", agg)
	}
}

func TestTrainValidation(t *testing.T) {
	p, err := synergy.NewPlatform(3, gpusim.V100Spec())
	if err != nil {
		t.Fatal(err)
	}
	q := p.Queues()[0]
	if _, err := Train(q, TrainConfig{Freqs: []int{}}); err == nil {
		t.Error("expected error for empty sweep")
	}
	if _, err := Train(q, TrainConfig{Freqs: []int{1297}, Spec: ml.Spec{Algorithm: "nope"}}); err == nil {
		t.Error("expected error for unknown algorithm")
	}
}

func TestClusteredModelTrainsAndPredicts(t *testing.T) {
	p, err := synergy.NewPlatform(3, gpusim.V100Spec())
	if err != nil {
		t.Fatal(err)
	}
	q := p.Queues()[0]
	band := q.Spec().FreqsAbove(0.45)
	var freqs []int
	for i := 0; i < len(band); i += 20 {
		freqs = append(freqs, band[i])
	}
	freqs = append(freqs, q.BaselineFreqMHz(), q.Spec().FMaxMHz())
	m, err := TrainClustered(q, TrainConfig{Freqs: freqs, Reps: 1, Seed: 5}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.curves) != 6 {
		t.Errorf("clusters %d, want 6", len(m.curves))
	}
	curves, err := m.PredictCurves(computeMix(), []int{q.BaselineFreqMHz(), q.Spec().FMaxMHz()})
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 2 {
		t.Fatalf("want 2 points, got %d", len(curves))
	}
	if curves[0].Speedup != 1 || curves[0].NormEnergy != 1 {
		t.Errorf("baseline point (%g, %g), want (1, 1)", curves[0].Speedup, curves[0].NormEnergy)
	}
	if curves[1].Speedup <= 0 || curves[1].NormEnergy <= 0 {
		t.Errorf("non-positive prediction %+v", curves[1])
	}
}

func TestClusteredModelRejectsUnsweptFrequency(t *testing.T) {
	p, err := synergy.NewPlatform(3, gpusim.V100Spec())
	if err != nil {
		t.Fatal(err)
	}
	q := p.Queues()[0]
	freqs := []int{q.BaselineFreqMHz(), q.Spec().FMaxMHz()}
	m, err := TrainClustered(q, TrainConfig{Freqs: freqs, Reps: 1, Seed: 5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.PredictCurves(computeMix(), []int{q.Spec().FMinMHz()}); err == nil {
		t.Error("expected error for frequency outside training sweep")
	}
}

func TestClusteredModelValidation(t *testing.T) {
	p, err := synergy.NewPlatform(3, gpusim.V100Spec())
	if err != nil {
		t.Fatal(err)
	}
	q := p.Queues()[0]
	if _, err := TrainClustered(q, TrainConfig{Freqs: []int{}}, 3); err == nil {
		t.Error("expected error for empty sweep")
	}
	if _, err := TrainClustered(q, TrainConfig{Freqs: []int{q.BaselineFreqMHz()}, Reps: 1}, 0); err == nil {
		t.Error("expected error for k=0")
	}
}

func TestStaticFeaturesFromListings(t *testing.T) {
	// The prediction phase can extract features from kernel listings (the
	// "new input code" of §4.1): parse the bundled dock and stencil
	// listings and check they land in the expected feature regimes.
	parse := func(name string) kernels.InstructionMix {
		f, err := os.Open(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		mix, err := kernels.ParseListing(f)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return mix
	}
	dock := parse("dock.k")
	stencil := parse("stencil.k")

	df := dock.StaticFeatures()
	sf := stencil.StaticFeatures()
	// Dock: float-mul dominated; stencil: much higher global-access share.
	if df[5] < 0.2 {
		t.Errorf("dock float_mul fraction %g, want >= 0.2", df[5])
	}
	if sf[8] <= df[8] {
		t.Errorf("stencil gl_access fraction %g not above dock %g", sf[8], df[8])
	}

	// Both feed the trained GP model like any other mix.
	m, q := trainSmall(t)
	curves := m.PredictCurves(dock, []int{q.BaselineFreqMHz(), q.Spec().FMaxMHz()})
	if len(curves) != 2 || curves[1].Speedup <= 0 {
		t.Errorf("listing-derived prediction invalid: %+v", curves)
	}
}
