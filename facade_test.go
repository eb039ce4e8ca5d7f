package dsenergy_test

// Integration tests exercising the library end to end across its packages,
// the way the examples/ programs do: testbed -> workloads -> measurements ->
// dataset -> model -> Pareto prediction, plus the reference CPU
// applications.

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"dsenergy/internal/core"
	"dsenergy/internal/cronos"
	"dsenergy/internal/experiments"
	"dsenergy/internal/gpusim"
	"dsenergy/internal/ligen"
	"dsenergy/internal/ml"
	"dsenergy/internal/pareto"
	"dsenergy/internal/synergy"
	"dsenergy/internal/tuner"
	"dsenergy/internal/xrand"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	tb, err := synergy.NewPlatform(42, gpusim.V100Spec(), gpusim.MI100Spec())
	if err != nil {
		t.Fatal(err)
	}
	v100 := tb.Queues()[0]
	w, err := ligen.NewWorkload(ligen.Input{Ligands: 512, Atoms: 31, Fragments: 8})
	if err != nil {
		t.Fatal(err)
	}
	m, err := synergy.MeasureAt(v100, w, v100.BaselineFreqMHz(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.TimeS <= 0 || m.EnergyJ <= 0 {
		t.Fatalf("bad measurement %+v", m)
	}
}

func TestFacadeModelingPipeline(t *testing.T) {
	tb, err := synergy.NewPlatform(42, gpusim.V100Spec(), gpusim.MI100Spec())
	if err != nil {
		t.Fatal(err)
	}
	v100 := tb.Queues()[0]

	var wls []core.FeaturedWorkload
	for _, g := range [][3]int{{10, 4, 4}, {20, 8, 8}, {40, 16, 16}} {
		w, err := cronos.NewWorkload(g[0], g[1], g[2], 4)
		if err != nil {
			t.Fatal(err)
		}
		wls = append(wls, core.FeaturedWorkload{
			Workload: w,
			Features: []float64{float64(g[0]), float64(g[1]), float64(g[2])},
		})
	}
	band := v100.Spec().FreqsAbove(0.5)
	var freqs []int
	for i := 0; i < len(band); i += 12 {
		freqs = append(freqs, band[i])
	}
	freqs = append(freqs, v100.BaselineFreqMHz(), v100.Spec().FMaxMHz())
	freqs = dedupSortInts(freqs)

	ds, err := core.BuildDataset(v100, core.CronosSchema(), wls,
		core.BuildConfig{Freqs: freqs, Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.TrainNormalized(ds, ml.Spec{Algorithm: "forest"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	curves := model.PredictCurves([]float64{20, 8, 8}, freqs)
	if len(curves) != len(freqs) {
		t.Fatalf("curve length %d, want %d", len(curves), len(freqs))
	}
	for _, c := range curves {
		if math.IsNaN(c.Speedup) || c.Speedup <= 0 {
			t.Fatalf("bad curve point %+v", c)
		}
	}
	var pts []pareto.Point
	for _, c := range curves {
		pts = append(pts, pareto.Point{FreqMHz: c.FreqMHz, Speedup: c.Speedup, NormEnergy: c.NormEnergy})
	}
	if front := pareto.Front(pts); len(front) == 0 {
		t.Fatal("empty Pareto front")
	}

	accs, err := core.LeaveOneInputOut(ds, ml.Spec{Algorithm: "forest"}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(accs) != 3 {
		t.Fatalf("want 3 accuracies, got %d", len(accs))
	}
}

func TestFacadeMHDApplication(t *testing.T) {
	s, err := cronos.NewSolver(cronos.Config{NX: 12, NY: 12, NZ: 12, Boundary: cronos.Periodic})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cronos.InitBlastWave(s.Grid, 0.1, 10, 0.2)
	mass0 := s.Grid.TotalMass()
	if err := s.Run(0.02, 10); err != nil {
		t.Fatal(err)
	}
	if s.StepsRun == 0 {
		t.Fatal("no steps taken")
	}
	if d := math.Abs(s.Grid.TotalMass() - mass0); d > 1e-10 {
		t.Errorf("mass drift %g", d)
	}
}

func TestFacadeDrugDiscoveryApplication(t *testing.T) {
	pocket, err := ligen.GenPocket(xrand.New(7), 16, 10)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := ligen.GenLibrary(xrand.New(11), 6, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	ranking, err := ligen.Screen(lib, pocket, ligen.TestParams(), 2, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranking) != 6 {
		t.Fatalf("ranking size %d, want 6", len(ranking))
	}
	for i := 1; i < len(ranking); i++ {
		if ranking[i].Score > ranking[i-1].Score {
			t.Fatal("ranking not sorted")
		}
	}
}

func TestFacadeDeviceSpecs(t *testing.T) {
	v := gpusim.V100Spec()
	m := gpusim.MI100Spec()
	if v.Name != "NVIDIA V100" || m.Name != "AMD MI100" {
		t.Errorf("preset names %q, %q", v.Name, m.Name)
	}
	if len(v.CoreFreqsMHz) != 196 {
		t.Errorf("V100 frequency table %d entries, want 196", len(v.CoreFreqsMHz))
	}
}

func TestExperimentConfigs(t *testing.T) {
	def := experiments.DefaultConfig()
	quick := experiments.QuickConfig()
	if def.Reps != 5 {
		t.Errorf("paper config reps %d, want 5", def.Reps)
	}
	if quick.FreqStride <= def.FreqStride {
		t.Error("quick config should subsample more aggressively")
	}
}

func dedupSortInts(fs []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, f := range fs {
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func TestFacadeTuningPolicies(t *testing.T) {
	curve := []core.CurvePoint{
		{FreqMHz: 1000, Speedup: 0.8, NormEnergy: 0.88},
		{FreqMHz: 1297, Speedup: 1.0, NormEnergy: 1.0},
		{FreqMHz: 1597, Speedup: 1.2, NormEnergy: 1.35},
	}
	if got := (tuner.MaxPerformance{}).Select(curve).FreqMHz; got != 1597 {
		t.Errorf("max-performance chose %d", got)
	}
	if got := (tuner.MinEnergy{}).Select(curve).FreqMHz; got != 1000 {
		t.Errorf("min-energy chose %d", got)
	}
	if got := (tuner.EnergyTarget{Target: 0.9}).Select(curve).FreqMHz; got != 1000 {
		t.Errorf("energy-target chose %d", got)
	}
	if got := (tuner.PerfConstraint{MinSpeedup: 0.95}).Select(curve).FreqMHz; got != 1297 {
		t.Errorf("perf-constraint chose %d", got)
	}
}

func TestFacadeDatasetCSV(t *testing.T) {
	tb, err := synergy.NewPlatform(42, gpusim.V100Spec(), gpusim.MI100Spec())
	if err != nil {
		t.Fatal(err)
	}
	q := tb.Queues()[0]
	w, _ := cronos.NewWorkload(10, 4, 4, 2)
	ds, err := core.BuildDataset(q, core.CronosSchema(),
		[]core.FeaturedWorkload{{Workload: w, Features: []float64{10, 4, 4}}},
		core.BuildConfig{Freqs: []int{q.BaselineFreqMHz(), q.Spec().FMaxMHz()}, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	// Two header rows, then one row per sample.
	if rows := strings.Count(buf.String(), "\n"); rows != 2+len(ds.Samples) {
		t.Errorf("CSV has %d rows, want %d", rows, 2+len(ds.Samples))
	}
}

// TestGoldenMeasurements freezes two end-to-end measurement values. Any
// change to the simulator's constants, the noise stream, or the workload
// profiles shifts these numbers; the test makes such changes conscious —
// recalibrate deliberately, then update the golden values (the shape tests
// in internal/experiments must still pass).
func TestGoldenMeasurements(t *testing.T) {
	tb, err := synergy.NewPlatform(42, gpusim.V100Spec(), gpusim.MI100Spec())
	if err != nil {
		t.Fatal(err)
	}
	v100 := tb.Queues()[0]

	w, _ := cronos.NewWorkload(20, 8, 8, 4)
	m, err := synergy.MeasureAt(v100, w, v100.BaselineFreqMHz(), 5)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "cronos-20x8x8 time", m.TimeS, 0.000480739182)
	checkGolden(t, "cronos-20x8x8 energy", m.EnergyJ, 0.0377027341)

	l, _ := ligen.NewWorkload(ligen.Input{Ligands: 1024, Atoms: 63, Fragments: 8})
	m2, err := synergy.MeasureAt(v100, l, v100.Spec().FMaxMHz(), 3)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "ligen-1024x63x8 time", m2.TimeS, 0.039860029)
	checkGolden(t, "ligen-1024x63x8 energy", m2.EnergyJ, 7.65534091)
}

func checkGolden(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-9*math.Abs(want) {
		t.Errorf("%s = %.9g, golden %.9g (simulator constants changed?)", name, got, want)
	}
}
