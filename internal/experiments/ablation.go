package experiments

import (
	"context"
	"fmt"
	"io"

	"dsenergy/internal/cluster"
	"dsenergy/internal/core"
	"dsenergy/internal/gpmodel"
	"dsenergy/internal/gpusim"
	"dsenergy/internal/kernels"
	"dsenergy/internal/ligen"
	"dsenergy/internal/obs"
	"dsenergy/internal/parallel"
	"dsenergy/internal/synergy"
	"dsenergy/internal/tuner"
)

// Ablation results quantify the design choices DESIGN.md §5 calls out.

// AblationRooflineResult compares the full roofline execution model against
// a compute-only variant (memory roof removed by inflating bandwidth): the
// compute-only model cannot produce the memory-bound plateau that makes
// Cronos down-clocking free.
type AblationRooflineResult struct {
	// Speedup at f_max relative to the default clock for the large Cronos
	// grid under each execution model.
	RooflineSpeedup    float64
	ComputeOnlySpeedup float64
	// Energy saving (fraction) when down-clocking to ~60% of the default.
	RooflineSaving    float64
	ComputeOnlySaving float64
}

// AblationRoofline runs the comparison on the large Cronos grid.
func (c Config) AblationRoofline() (AblationRooflineResult, error) {
	w, err := c.cronosWorkload([3]int{160, 64, 64})
	if err != nil {
		return AblationRooflineResult{}, err
	}
	eval := func(spec gpusim.Spec) (speedup, saving float64, err error) {
		dev, err := gpusim.New(spec, c.Seed)
		if err != nil {
			return 0, 0, err
		}
		dev.SetObserver(c.Obs)
		def := spec.BaselineFreqMHz()
		low := spec.NearestFreqMHz(def * 6 / 10)
		// One batched curve per kernel instead of three single-frequency
		// passes; values are bit-identical to per-frequency AnalyticOn.
		ts, es := w.AnalyticCurveOn(dev, []int{def, spec.FMaxMHz(), low})
		return ts[0] / ts[1], 1 - es[2]/es[0], nil
	}
	full := gpusim.V100Spec()
	computeOnly := gpusim.V100Spec()
	computeOnly.PeakBWGBs *= 1e6 // memory roof never binds
	var r AblationRooflineResult
	if r.RooflineSpeedup, r.RooflineSaving, err = eval(full); err != nil {
		return AblationRooflineResult{}, err
	}
	if r.ComputeOnlySpeedup, r.ComputeOnlySaving, err = eval(computeOnly); err != nil {
		return AblationRooflineResult{}, err
	}
	return r, nil
}

// AblationFeaturesResult isolates the paper's central design choice: giving
// the model the input features. The "static-only" variant trains the same
// pipeline with a constant feature vector, so it degenerates to one curve
// for all inputs — the general-purpose model's failure mode.
type AblationFeaturesResult struct {
	WithInputsMeanMAPE float64 // mean of speedup+energy MAPE over inputs
	StaticOnlyMeanMAPE float64
}

// AblationFeatures runs leave-one-input-out on the LiGen dataset with and
// without input features. The protocol retrains two forests per input, so
// large configurations are capped at 24 inputs (a deterministic subset) —
// the with/without contrast is what matters, and both arms see the same cap.
func (c Config) AblationFeatures() (AblationFeaturesResult, error) {
	c.LiGenInputs = thinInputs(c.LiGenInputs)
	p, err := c.Platform()
	if err != nil {
		return AblationFeaturesResult{}, err
	}
	q := p.Queues()[0]
	ds, _, err := c.BuildLiGenDataset(q)
	if err != nil {
		return AblationFeaturesResult{}, err
	}
	withAccs, err := core.LeaveOneInputOut(ds, c.ForestSpec(), c.Seed+11, c.Jobs)
	if err != nil {
		return AblationFeaturesResult{}, err
	}

	// Static-only: same samples, feature vector forced constant, but the
	// held-out grouping still follows the true inputs so the evaluation
	// protocol is identical. Training on the blinded dataset and scoring
	// against the true per-input curves measures what a model without
	// input features can express.
	var r AblationFeaturesResult
	for _, a := range withAccs {
		r.WithInputsMeanMAPE += (a.SpeedupMAPE + a.NormEnergyMAPE) / 2
	}
	r.WithInputsMeanMAPE /= float64(len(withAccs))

	// Each held-out input retrains a blinded forest — independent folds,
	// fanned out on the config's worker pool and summed in input order.
	inputs := ds.Inputs()
	staticMAPEs, err := parallel.Map(context.Background(), len(inputs), c.Jobs, func(_ context.Context, i int) (float64, error) {
		held := inputs[i]
		blind := blindDataset(ds, held)
		m, err := core.TrainNormalized(blind, c.ForestSpec(), c.Seed+12)
		if err != nil {
			return 0, err
		}
		// Score the blinded model's single curve against this input's truth.
		a, err := core.ScoreModel(ds, m, held, make([]float64, len(held)))
		if err != nil {
			return 0, err
		}
		return (a.SpeedupMAPE + a.NormEnergyMAPE) / 2, nil
	})
	if err != nil {
		return AblationFeaturesResult{}, err
	}
	var staticSum float64
	for _, m := range staticMAPEs {
		staticSum += m
	}
	r.StaticOnlyMeanMAPE = staticSum / float64(len(inputs))
	return r, nil
}

// blindDataset drops the held-out input and zeroes every feature vector.
func blindDataset(ds *core.Dataset, held []float64) *core.Dataset {
	blind := &core.Dataset{
		Schema:          ds.Schema,
		Device:          ds.Device,
		BaselineFreqMHz: ds.BaselineFreqMHz,
	}
	for _, s := range ds.Samples {
		if core.SameInput(s.Features, held) {
			continue
		}
		blind.Samples = append(blind.Samples, core.Sample{
			Features: make([]float64, len(s.Features)),
			FreqMHz:  s.FreqMHz,
			TimeS:    s.TimeS,
			EnergyJ:  s.EnergyJ,
		})
	}
	return blind
}

// AblationNoiseResult quantifies the paper's five-repetition protocol.
type AblationNoiseResult struct {
	Reps1MeanMAPE float64
	Reps5MeanMAPE float64
}

// AblationNoise compares domain-specific accuracy with 1 vs 5 measurement
// repetitions on the Cronos dataset.
func (c Config) AblationNoise() (AblationNoiseResult, error) {
	run := func(reps int, o *obs.Observer) (float64, error) {
		cfg := c
		cfg.Reps = reps
		cfg.Obs = o
		p, err := cfg.Platform()
		if err != nil {
			return 0, err
		}
		ds, _, err := cfg.BuildCronosDataset(p.Queues()[0])
		if err != nil {
			return 0, err
		}
		accs, err := core.LeaveOneInputOut(ds, cfg.ForestSpec(), cfg.Seed+13, 1)
		if err != nil {
			return 0, err
		}
		var sum float64
		for _, a := range accs {
			sum += (a.SpeedupMAPE + a.NormEnergyMAPE) / 2
		}
		return sum / float64(len(accs)), nil
	}
	// The two arms build independent platforms from the same seed — run them
	// concurrently on the config's pool, each on its own observer fork.
	repCounts := []int{1, 5}
	forks := c.Obs.ForkN(len(repCounts))
	mapes, err := parallel.Map(context.Background(), len(repCounts), c.Jobs, func(_ context.Context, i int) (float64, error) {
		return run(repCounts[i], forks[i])
	})
	if err != nil {
		return AblationNoiseResult{}, err
	}
	c.Obs.AbsorbAll(forks)
	return AblationNoiseResult{Reps1MeanMAPE: mapes[0], Reps5MeanMAPE: mapes[1]}, nil
}

// AblationBatchingResult probes the LiGen kernel-batching design: how the
// per-launch ligand batch influences the energy behaviour of large inputs
// (§3.2.2 discusses utilization effects of packing ligands per kernel).
type AblationBatchingResult struct {
	// Rows pair a batch size with the large-input energy saving achievable
	// by down-clocking 25% below the default.
	BatchSizes []int
	Savings    []float64
}

// AblationBatching sweeps the LiGen launch batch size.
func (c Config) AblationBatching() (AblationBatchingResult, error) {
	dev, err := gpusim.New(gpusim.V100Spec(), c.Seed)
	if err != nil {
		return AblationBatchingResult{}, err
	}
	dev.SetObserver(c.Obs)
	spec := dev.Spec()
	def := spec.BaselineFreqMHz()
	low := spec.NearestFreqMHz(def * 3 / 4)
	batches := []int{256, 1024, 2048, 8192}
	// A Device serves one goroutine: pre-split one fork per task.
	devs := make([]*gpusim.Device, len(batches))
	for i := range devs {
		devs[i] = dev.Fork()
	}
	savings, err := parallel.Map(context.Background(), len(batches), c.Jobs, func(_ context.Context, i int) (float64, error) {
		w, err := ligen.NewWorkload(ligen.Input{Ligands: 10000, Atoms: 89, Fragments: 20})
		if err != nil {
			return 0, err
		}
		w.Params.NumRestart = ligen.DefaultParams().NumRestart
		wb := w
		wb.BatchOverride = batches[i]
		_, es := wb.AnalyticCurveOn(devs[i], []int{def, low})
		return 1 - es[1]/es[0], nil
	})
	if err != nil {
		return AblationBatchingResult{}, err
	}
	return AblationBatchingResult{BatchSizes: batches, Savings: savings}, nil
}

// AblationBaselinesResult compares three model families on the Cronos
// dataset: the domain-specific forest, the regression-based general-purpose
// model (Fan et al.), and the clustering-based general-purpose model (Wu et
// al., the related-work alternative). Mean of speedup+energy MAPE across
// inputs.
type AblationBaselinesResult struct {
	DomainSpecificMAPE float64
	GPRegressionMAPE   float64
	GPClusteredMAPE    float64
}

// AblationBaselines runs the three-way comparison.
func (c Config) AblationBaselines() (AblationBaselinesResult, error) {
	p, err := c.Platform()
	if err != nil {
		return AblationBaselinesResult{}, err
	}
	q := p.Queues()[0]
	ds, wls, err := c.BuildCronosDataset(q)
	if err != nil {
		return AblationBaselinesResult{}, err
	}
	var r AblationBaselinesResult

	dsAccs, err := core.LeaveOneInputOut(ds, c.ForestSpec(), c.Seed+21, c.Jobs)
	if err != nil {
		return AblationBaselinesResult{}, err
	}
	for _, a := range dsAccs {
		r.DomainSpecificMAPE += (a.SpeedupMAPE + a.NormEnergyMAPE) / 2
	}
	r.DomainSpecificMAPE /= float64(len(dsAccs))

	gp, err := c.TrainGP(q)
	if err != nil {
		return AblationBaselinesResult{}, err
	}
	cl, err := gpmodel.TrainClustered(q, gpmodel.TrainConfig{
		Freqs: c.sweepFreqs(q.Spec()), Reps: c.Reps, Seed: c.Seed + 22,
	}, 8)
	if err != nil {
		return AblationBaselinesResult{}, err
	}

	inputs := ds.Inputs()
	for i, input := range inputs {
		w := wls[i].Workload.(interface{ Profiles() []kernels.Profile })
		static := staticFeatures(w.Profiles())

		g, err := core.ScoreModel(ds, gp, input, static)
		if err != nil {
			return AblationBaselinesResult{}, err
		}
		r.GPRegressionMAPE += (g.SpeedupMAPE + g.NormEnergyMAPE) / 2

		ca, err := core.ScoreCurve(ds, input, func(freqs []int) ([]core.CurvePoint, error) {
			return cl.PredictCurves(static, freqs)
		})
		if err != nil {
			return AblationBaselinesResult{}, err
		}
		r.GPClusteredMAPE += (ca.SpeedupMAPE + ca.NormEnergyMAPE) / 2
	}
	r.GPRegressionMAPE /= float64(len(inputs))
	r.GPClusteredMAPE /= float64(len(inputs))
	return r, nil
}

// PerKernelResult measures the paper's §7 future work: per-kernel frequency
// scaling on the large Cronos grid under a tight performance constraint.
type PerKernelResult struct {
	Plan    map[string]int // selected clock per kernel
	Outcome tuner.Outcome
}

// FutureWorkPerKernel trains per-kernel models on the Cronos ladder and
// executes the per-kernel plan for the 160x64x64 input.
func (c Config) FutureWorkPerKernel() (PerKernelResult, error) {
	p, err := c.Platform()
	if err != nil {
		return PerKernelResult{}, err
	}
	q := p.Queues()[0]
	var wls []core.FeaturedWorkload
	for _, g := range PaperGrids()[1:] { // 20x8x8 and up
		w, err := c.cronosWorkload(g)
		if err != nil {
			return PerKernelResult{}, err
		}
		wls = append(wls, core.FeaturedWorkload{
			Workload: w,
			Features: []float64{float64(g[0]), float64(g[1]), float64(g[2])},
		})
	}
	pk, err := tuner.TrainPerKernel(q, core.CronosSchema(), wls,
		core.BuildConfig{Freqs: c.sweepFreqs(q.Spec()), Reps: c.Reps},
		c.ForestSpec(), tuner.PerfConstraint{MinSpeedup: 0.99}, c.Seed+31)
	if err != nil {
		return PerKernelResult{}, err
	}
	plan, err := pk.PlanFor([]float64{160, 64, 64})
	if err != nil {
		return PerKernelResult{}, err
	}
	w, err := c.cronosWorkload([3]int{160, 64, 64})
	if err != nil {
		return PerKernelResult{}, err
	}
	out, err := pk.Execute(q, w, plan, c.Reps)
	if err != nil {
		return PerKernelResult{}, err
	}
	return PerKernelResult{Plan: plan.FreqByKernel, Outcome: out}, nil
}

// ScalingRow is one point of the strong-scaling study.
type ScalingRow struct {
	Devices    int
	TimeS      float64
	EnergyJ    float64
	Efficiency float64
}

// StrongScaling measures distributed strong scaling for both applications
// (LiGen screening shards, Cronos z-slab decomposition with halo exchange)
// on V100 clusters of growing size — the Celerity/multi-node context the
// paper's applications come from.
func (c Config) StrongScaling(devices []int) (ligenRows, cronosRows []ScalingRow, err error) {
	in := ligen.Input{Ligands: 16384, Atoms: 63, Fragments: 8}
	grid := [3]int{160, 64, 64}

	// Every cluster size builds its own identically seeded cluster, so the
	// points are independent and fan out on the config's pool; efficiencies
	// need the single-device baseline and are derived afterwards, in order.
	type scalePoint struct{ ligen, cronos cluster.Result }
	forks := c.Obs.ForkN(len(devices))
	points, err := parallel.Map(context.Background(), len(devices), c.Jobs, func(_ context.Context, i int) (scalePoint, error) {
		cl, err := cluster.New(c.Seed, gpusim.V100Spec(), devices[i], cluster.DefaultInterconnect())
		if err != nil {
			return scalePoint{}, err
		}
		cl.SetObserver(forks[i])
		lr, err := cl.ScreenLiGen(in)
		if err != nil {
			return scalePoint{}, err
		}
		cr, err := cl.RunCronos(grid[0], grid[1], grid[2], c.CronosSteps)
		if err != nil {
			return scalePoint{}, err
		}
		return scalePoint{ligen: lr, cronos: cr}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	c.Obs.AbsorbAll(forks)
	var ligenBase, cronosBase float64
	for i, n := range devices {
		lr, cr := points[i].ligen, points[i].cronos
		if n == devices[0] && n == 1 {
			ligenBase, cronosBase = lr.TimeS, cr.TimeS
		}
		lrow := ScalingRow{Devices: n, TimeS: lr.TimeS, EnergyJ: lr.EnergyJ}
		crow := ScalingRow{Devices: n, TimeS: cr.TimeS, EnergyJ: cr.EnergyJ}
		if ligenBase > 0 {
			lrow.Efficiency = lr.Efficiency(ligenBase, n)
			crow.Efficiency = cr.Efficiency(cronosBase, n)
		}
		ligenRows = append(ligenRows, lrow)
		cronosRows = append(cronosRows, crow)
	}
	return ligenRows, cronosRows, nil
}

// RenderAblations runs and prints every ablation.
func (c Config) RenderAblations(w io.Writer) error {
	fmt.Fprintln(w, "== ablations ==")
	rf, err := c.AblationRoofline()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "roofline vs compute-only (Cronos 160x64x64):\n")
	fmt.Fprintf(w, "   speedup@fmax: roofline %.3f, compute-only %.3f\n", rf.RooflineSpeedup, rf.ComputeOnlySpeedup)
	fmt.Fprintf(w, "   down-clock saving: roofline %.1f%%, compute-only %.1f%%\n",
		rf.RooflineSaving*100, rf.ComputeOnlySaving*100)

	ft, err := c.AblationFeatures()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "input features vs static-only (LiGen): with %.4f, static-only %.4f MAPE\n",
		ft.WithInputsMeanMAPE, ft.StaticOnlyMeanMAPE)

	nz, err := c.AblationNoise()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "measurement repetitions (Cronos): 1 rep %.4f, 5 reps %.4f MAPE\n",
		nz.Reps1MeanMAPE, nz.Reps5MeanMAPE)

	bt, err := c.AblationBatching()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "LiGen launch batch vs down-clock saving:")
	for i := range bt.BatchSizes {
		fmt.Fprintf(w, "  %d->%.1f%%", bt.BatchSizes[i], bt.Savings[i]*100)
	}
	fmt.Fprintln(w)

	bl, err := c.AblationBaselines()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "model families (Cronos, mean MAPE): domain-specific %.4f, GP regression %.4f, GP clustered %.4f\n",
		bl.DomainSpecificMAPE, bl.GPRegressionMAPE, bl.GPClusteredMAPE)
	return nil
}

var _ synergy.Workload = ligen.Workload{} // ablations rely on this contract
