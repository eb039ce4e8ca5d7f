package dsenergy

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation. Each benchmark regenerates its experiment end to end
// (measurement sweep, model training where applicable) and reports the
// figure's headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's result set. The benchmarks run the reduced-fidelity
// QuickConfig; `go run ./cmd/...` regenerates the full-fidelity versions.

import (
	"testing"

	"dsenergy/internal/experiments"
	"dsenergy/internal/ml"
	"dsenergy/internal/xrand"
)

func benchCfg() experiments.Config { return experiments.QuickConfig() }

// benchFigure runs a characterization-figure generator once per iteration
// and reports the Pareto-front sizes of its panels.
func benchFigure(b *testing.B, gen func() (experiments.Figure, error)) {
	b.Helper()
	var fig experiments.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = gen()
		if err != nil {
			b.Fatal(err)
		}
	}
	var points, front int
	for _, s := range fig.Series {
		points += len(s.Points)
		front += len(s.ParetoFreqs)
	}
	b.ReportMetric(float64(points), "sweep-points")
	b.ReportMetric(float64(front), "pareto-points")
}

// BenchmarkFig01Characterization regenerates Figure 1 (LiGen and Cronos
// multi-objective characterization on the V100).
func BenchmarkFig01Characterization(b *testing.B) { benchFigure(b, benchCfg().Fig1) }

// BenchmarkFig02LiGenInputSizes regenerates Figure 2 (LiGen small vs large
// input Pareto analysis).
func BenchmarkFig02LiGenInputSizes(b *testing.B) { benchFigure(b, benchCfg().Fig2) }

// BenchmarkFig03CronosInputSizes regenerates Figure 3 (Cronos 20x8x8 vs
// 160x64x64).
func BenchmarkFig03CronosInputSizes(b *testing.B) { benchFigure(b, benchCfg().Fig3) }

// BenchmarkFig04CronosV100 regenerates Figure 4 (Cronos grid scaling, V100).
func BenchmarkFig04CronosV100(b *testing.B) { benchFigure(b, benchCfg().Fig4) }

// BenchmarkFig05CronosMI100 regenerates Figure 5 (Cronos grid scaling,
// MI100 with auto performance level baseline).
func BenchmarkFig05CronosMI100(b *testing.B) { benchFigure(b, benchCfg().Fig5) }

// BenchmarkFig06LiGenFragmentsV100 regenerates Figure 6 (raw energy/time,
// fragment scaling at fixed atoms, V100).
func BenchmarkFig06LiGenFragmentsV100(b *testing.B) { benchFigure(b, benchCfg().Fig6) }

// BenchmarkFig07LiGenFragmentsMI100 regenerates Figure 7 (same on MI100).
func BenchmarkFig07LiGenFragmentsMI100(b *testing.B) { benchFigure(b, benchCfg().Fig7) }

// BenchmarkFig08LiGenAtomsV100 regenerates Figure 8 (atom scaling at fixed
// fragments, V100).
func BenchmarkFig08LiGenAtomsV100(b *testing.B) { benchFigure(b, benchCfg().Fig8) }

// BenchmarkFig09LiGenAtomsMI100 regenerates Figure 9 (same on MI100).
func BenchmarkFig09LiGenAtomsMI100(b *testing.B) { benchFigure(b, benchCfg().Fig9) }

// BenchmarkFig10LiGenBothDevices regenerates Figure 10 (LiGen small vs large
// inputs on V100 and MI100).
func BenchmarkFig10LiGenBothDevices(b *testing.B) { benchFigure(b, benchCfg().Fig10) }

// BenchmarkTable1StaticFeatures exercises Table 1: static-feature extraction
// over the full micro-benchmark suite.
func BenchmarkTable1StaticFeatures(b *testing.B) {
	cfg := benchCfg()
	p, err := cfg.Platform()
	if err != nil {
		b.Fatal(err)
	}
	q := p.Queues()[0]
	for i := 0; i < b.N; i++ {
		gp, err := cfg.TrainGP(q)
		if err != nil {
			b.Fatal(err)
		}
		if gp.BaselineFreqMHz != q.BaselineFreqMHz() {
			b.Fatal("baseline mismatch")
		}
	}
}

// BenchmarkTable2DomainFeatures exercises Table 2: building both
// domain-specific datasets from their feature schemas.
func BenchmarkTable2DomainFeatures(b *testing.B) {
	cfg := benchCfg()
	p, err := cfg.Platform()
	if err != nil {
		b.Fatal(err)
	}
	q := p.Queues()[0]
	var samples int
	for i := 0; i < b.N; i++ {
		cds, _, err := cfg.BuildCronosDataset(q)
		if err != nil {
			b.Fatal(err)
		}
		lds, _, err := cfg.BuildLiGenDataset(q)
		if err != nil {
			b.Fatal(err)
		}
		samples = len(cds.Samples) + len(lds.Samples)
	}
	b.ReportMetric(float64(samples), "samples")
}

// BenchmarkFig13ModelAccuracy regenerates Figure 13 (domain-specific vs
// general-purpose MAPE, both applications) and reports the paper's headline
// GP/DS error ratios.
func BenchmarkFig13ModelAccuracy(b *testing.B) {
	cfg := benchCfg()
	var r experiments.Fig13Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = cfg.Fig13()
		if err != nil {
			b.Fatal(err)
		}
	}
	sp, en := r.MeanRatios()
	b.ReportMetric(sp, "speedup-ratio")
	b.ReportMetric(en, "energy-ratio")
}

// BenchmarkFig14ParetoPrediction regenerates Figure 14 (predicted Pareto
// sets) and reports exact-match counts for both models.
func BenchmarkFig14ParetoPrediction(b *testing.B) {
	cfg := benchCfg()
	var panels []experiments.Fig14Panel
	var err error
	for i := 0; i < b.N; i++ {
		panels, err = cfg.Fig14()
		if err != nil {
			b.Fatal(err)
		}
	}
	var dsExact, gpExact int
	for _, p := range panels {
		dsExact += p.DS.ExactMatches
		gpExact += p.GP.ExactMatches
	}
	b.ReportMetric(float64(dsExact), "ds-exact")
	b.ReportMetric(float64(gpExact), "gp-exact")
}

// BenchmarkRegressorComparison regenerates §5.2.1's algorithm selection
// (Linear, Lasso, SVR-RBF, Random Forest on both applications).
func BenchmarkRegressorComparison(b *testing.B) {
	cfg := benchCfg()
	var cmp []experiments.AlgorithmComparison
	var err error
	for i := 0; i < b.N; i++ {
		cmp, err = cfg.CompareRegressors()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range cmp {
		for _, s := range c.Scores {
			if s.Spec.Algorithm == "forest" {
				b.ReportMetric(s.MeanSpeedupMAPE, c.App+"-forest-mape")
			}
		}
	}
}

// BenchmarkAblationRoofline quantifies design choice 1 of DESIGN.md §5:
// roofline vs compute-only execution model.
func BenchmarkAblationRoofline(b *testing.B) {
	cfg := benchCfg()
	var r experiments.AblationRooflineResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = cfg.AblationRoofline()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.RooflineSaving, "roofline-saving")
	b.ReportMetric(r.ComputeOnlySaving, "compute-only-saving")
}

// BenchmarkAblationInputFeatures quantifies design choice 3: input features
// vs static-only features in the domain-specific pipeline.
func BenchmarkAblationInputFeatures(b *testing.B) {
	cfg := benchCfg()
	var r experiments.AblationFeaturesResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = cfg.AblationFeatures()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.WithInputsMeanMAPE, "with-inputs-mape")
	b.ReportMetric(r.StaticOnlyMeanMAPE, "static-only-mape")
}

// BenchmarkAblationNoiseReps quantifies design choice 4: one vs five
// measurement repetitions.
func BenchmarkAblationNoiseReps(b *testing.B) {
	cfg := benchCfg()
	var r experiments.AblationNoiseResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = cfg.AblationNoise()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Reps1MeanMAPE, "reps1-mape")
	b.ReportMetric(r.Reps5MeanMAPE, "reps5-mape")
}

// BenchmarkAblationBatching quantifies the LiGen launch-batching choice.
func BenchmarkAblationBatching(b *testing.B) {
	cfg := benchCfg()
	var r experiments.AblationBatchingResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = cfg.AblationBatching()
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(r.Savings) > 0 {
		b.ReportMetric(r.Savings[len(r.Savings)-1], "max-batch-saving")
	}
}

// BenchmarkFutureWorkPerKernel measures the paper's §7 future work: energy
// saved by per-kernel frequency scaling on the large Cronos grid.
func BenchmarkFutureWorkPerKernel(b *testing.B) {
	cfg := benchCfg()
	var r experiments.PerKernelResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = cfg.FutureWorkPerKernel()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Outcome.EnergySaving(), "energy-saving")
	b.ReportMetric(r.Outcome.Speedup(), "speedup")
}

// BenchmarkStrongScaling measures distributed strong scaling of both
// applications on V100 clusters (the Celerity/multi-node context).
func BenchmarkStrongScaling(b *testing.B) {
	cfg := benchCfg()
	var lr, cr []experiments.ScalingRow
	var err error
	for i := 0; i < b.N; i++ {
		lr, cr, err = cfg.StrongScaling([]int{1, 2, 4, 8})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(lr[len(lr)-1].Efficiency, "ligen-eff-8dev")
	b.ReportMetric(cr[len(cr)-1].Efficiency, "cronos-eff-8dev")
}

// BenchmarkSweepSerialVsParallel compares the serial measurement campaign
// (Workers=1, the reference path) against the deterministic parallel engine
// (Workers=0, GOMAXPROCS workers) building the full QuickConfig LiGen
// dataset. Both arms produce byte-identical datasets — the determinism tests
// pin that — so the ns/op ratio is the engine's pure speedup.
func BenchmarkSweepSerialVsParallel(b *testing.B) {
	for _, arm := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(arm.name, func(b *testing.B) {
			cfg := benchCfg()
			cfg.Jobs = arm.workers
			var samples int
			for i := 0; i < b.N; i++ {
				p, err := cfg.Platform()
				if err != nil {
					b.Fatal(err)
				}
				ds, _, err := cfg.BuildLiGenDataset(p.Queues()[0])
				if err != nil {
					b.Fatal(err)
				}
				samples = len(ds.Samples)
			}
			b.ReportMetric(float64(samples), "samples")
		})
	}
}

// BenchmarkGridSearchParallel compares the serial grid search (k-fold
// cross-validation at every grid point) against the parallel grid-point
// fan-out on a synthetic regression problem sized like the paper's datasets.
func BenchmarkGridSearchParallel(b *testing.B) {
	const n, d, k = 600, 6, 5
	rng := xrand.New(42)
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, d)
		var s float64
		for j := range row {
			row[j] = rng.Float64()
			s += float64(j+1) * row[j]
		}
		X[i] = row
		y[i] = 1 + s + 0.01*rng.Norm()
	}
	spec := ml.Spec{Algorithm: "forest", Params: map[string]float64{"n_estimators": 30}}
	grid := map[string][]float64{"max_depth": {4, 8}, "min_samples_leaf": {1, 3}}
	for _, arm := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(arm.name, func(b *testing.B) {
			var pts []ml.GridPoint
			var err error
			for i := 0; i < b.N; i++ {
				pts, err = ml.GridSearchParallel(spec, grid, X, y, k, 7, arm.workers)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(pts[0].MAPE, "mape")
		})
	}
}

// BenchmarkTunerComparison measures the deployment trade-off: model-driven
// frequency selection (zero application executions) vs online search vs the
// oracle, on the held-out large Cronos grid.
func BenchmarkTunerComparison(b *testing.B) {
	cfg := benchCfg()
	var r experiments.TuningComparison
	var err error
	for i := 0; i < b.N; i++ {
		r, err = cfg.CompareTuners()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.ModelEnergy-r.OracleEnergy, "model-regret")
	b.ReportMetric(float64(r.OnlineMeasurements), "online-runs")
}
