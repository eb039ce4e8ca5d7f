package experiments

import (
	"context"
	"fmt"
	"slices"

	"dsenergy/internal/core"
	"dsenergy/internal/cronos"
	"dsenergy/internal/gpmodel"
	"dsenergy/internal/kernels"
	"dsenergy/internal/ligen"
	"dsenergy/internal/ml"
	"dsenergy/internal/parallel"
	"dsenergy/internal/pareto"
	"dsenergy/internal/synergy"
)

// ForestSpec is the paper's selected model: a random forest with default
// hyper-parameters (§5.2.1), sized by the config and attached to the
// config's observer for training counters and phase timers.
func (c Config) ForestSpec() ml.Spec {
	return ml.Spec{
		Algorithm: "forest",
		Params:    map[string]float64{"n_estimators": float64(c.Trees)},
		Obs:       c.Obs,
	}
}

// forestSpec is the internal alias used by the generators.
func (c Config) forestSpec() ml.Spec { return c.ForestSpec() }

// BuildCronosDataset measures the Cronos grid ladder on q (training phase of
// Figure 11) and returns the dataset plus the measured workloads.
func (c Config) BuildCronosDataset(q *synergy.Queue) (*core.Dataset, []core.FeaturedWorkload, error) {
	var wls []core.FeaturedWorkload
	for _, g := range PaperGrids() {
		w, err := c.cronosWorkload(g)
		if err != nil {
			return nil, nil, err
		}
		wls = append(wls, core.FeaturedWorkload{
			Workload: w,
			Features: []float64{float64(g[0]), float64(g[1]), float64(g[2])},
		})
	}
	ds, err := core.BuildDataset(q, core.CronosSchema(), wls, core.BuildConfig{
		Freqs: c.sweepFreqs(q.Spec()), Reps: c.Reps, Workers: c.Jobs,
	})
	return ds, wls, err
}

// BuildLiGenDataset measures the LiGen input grid on q.
func (c Config) BuildLiGenDataset(q *synergy.Queue) (*core.Dataset, []core.FeaturedWorkload, error) {
	var wls []core.FeaturedWorkload
	for _, in := range c.LiGenInputs {
		w, err := ligen.NewWorkload(in)
		if err != nil {
			return nil, nil, err
		}
		wls = append(wls, core.FeaturedWorkload{
			Workload: w,
			Features: []float64{float64(in.Ligands), float64(in.Fragments), float64(in.Atoms)},
		})
	}
	ds, err := core.BuildDataset(q, core.LiGenSchema(), wls, core.BuildConfig{
		Freqs: c.sweepFreqs(q.Spec()), Reps: c.Reps, Workers: c.Jobs,
	})
	return ds, wls, err
}

// TrainGP trains the general-purpose baseline on q's micro-benchmark sweep.
func (c Config) TrainGP(q *synergy.Queue) (*gpmodel.Model, error) {
	return gpmodel.Train(q, gpmodel.TrainConfig{
		Freqs: c.sweepFreqs(q.Spec()),
		Reps:  c.Reps,
		Spec:  c.forestSpec(),
		Seed:  c.Seed + 77,
	})
}

// gpCurveMAPE scores the general-purpose model against the dataset truth for
// one input, given the application's static mix.
func gpCurveMAPE(ds *core.Dataset, gp *gpmodel.Model, mix kernels.InstructionMix, input []float64) (core.InputAccuracy, error) {
	truth, err := ds.TrueCurves(input)
	if err != nil {
		return core.InputAccuracy{}, err
	}
	freqs := make([]int, len(truth))
	for i, t := range truth {
		freqs[i] = t.FreqMHz
	}
	curves := gp.PredictCurves(mix, freqs)
	conv := make([]core.CurvePoint, len(curves))
	for i, p := range curves {
		conv[i] = core.CurvePoint{FreqMHz: p.FreqMHz, Speedup: p.Speedup, NormEnergy: p.NormEnergy}
	}
	return core.CurveMAPE(ds, input, conv)
}

// AccuracyBar is one input's bar pair of Figure 13: domain-specific vs
// general-purpose MAPE.
type AccuracyBar struct {
	Label                      string
	DSSpeedup, GPSpeedup       float64
	DSNormEnergy, GPNormEnergy float64
}

// Fig13Result is the full accuracy comparison of Figure 13.
type Fig13Result struct {
	Cronos []AccuracyBar // panels a (speedup) and b (energy), one bar per grid
	LiGen  []AccuracyBar // panels c and d, one bar per displayed input
}

// MeanRatios returns the average GP/DS error ratios (speedup, energy) across
// all bars — the paper's "ten times lower error" claim.
func (r Fig13Result) MeanRatios() (speedupRatio, energyRatio float64) {
	var ds, gs, de, ge float64
	all := append(append([]AccuracyBar(nil), r.Cronos...), r.LiGen...)
	for _, b := range all {
		ds += b.DSSpeedup
		gs += b.GPSpeedup
		de += b.DSNormEnergy
		ge += b.GPNormEnergy
	}
	return gs / ds, ge / de
}

// Fig13 regenerates Figure 13: leave-one-input-out accuracy of the
// domain-specific models against the general-purpose model, for both
// applications on the V100.
func (c Config) Fig13() (Fig13Result, error) {
	p, err := c.platform()
	if err != nil {
		return Fig13Result{}, err
	}
	q := p.Queues()[0] // V100, as in §5.1

	gp, err := c.TrainGP(q)
	if err != nil {
		return Fig13Result{}, err
	}

	var out Fig13Result

	// --- Cronos (panels a, b) ---
	cds, cwls, err := c.BuildCronosDataset(q)
	if err != nil {
		return Fig13Result{}, err
	}
	cAccs, err := core.LeaveOneInputOutParallel(cds, c.forestSpec(), c.Seed+1, c.Jobs)
	if err != nil {
		return Fig13Result{}, err
	}
	for i, a := range cAccs {
		w := cwls[i].Workload.(cronos.Workload)
		mix := gpmodel.AppStaticFeatures(w.Profiles())
		g, err := gpCurveMAPE(cds, gp, mix, a.Input)
		if err != nil {
			return Fig13Result{}, err
		}
		out.Cronos = append(out.Cronos, AccuracyBar{
			Label:     a.Label,
			DSSpeedup: a.SpeedupMAPE, GPSpeedup: g.SpeedupMAPE,
			DSNormEnergy: a.NormEnergyMAPE, GPNormEnergy: g.NormEnergyMAPE,
		})
	}

	// --- LiGen (panels c, d) ---
	lds, _, err := c.BuildLiGenDataset(q)
	if err != nil {
		return Fig13Result{}, err
	}
	display := c.fig13Display(lds)
	// Each displayed input retrains its own held-out model — independent
	// work, fanned out on the config's worker pool.
	out.LiGen, err = parallel.Map(context.Background(), len(display), c.Jobs, func(_ context.Context, i int) (AccuracyBar, error) {
		in := display[i]
		features := []float64{float64(in.Ligands), float64(in.Fragments), float64(in.Atoms)}
		a, err := core.EvalHeldOut(lds, c.forestSpec(), c.Seed+2, features)
		if err != nil {
			return AccuracyBar{}, err
		}
		w, err := ligen.NewWorkload(in)
		if err != nil {
			return AccuracyBar{}, err
		}
		mix := gpmodel.AppStaticFeatures(w.Profiles())
		g, err := gpCurveMAPE(lds, gp, mix, features)
		if err != nil {
			return AccuracyBar{}, err
		}
		return AccuracyBar{
			// The paper labels LiGen inputs atoms x fragments x ligands.
			Label:     fmt.Sprintf("%dx%dx%d", in.Atoms, in.Fragments, in.Ligands),
			DSSpeedup: a.SpeedupMAPE, GPSpeedup: g.SpeedupMAPE,
			DSNormEnergy: a.NormEnergyMAPE, GPNormEnergy: g.NormEnergyMAPE,
		}, nil
	})
	if err != nil {
		return Fig13Result{}, err
	}
	return out, nil
}

// fig13Display returns the LiGen inputs shown in Figure 13c/d that exist in
// the dataset (all of them under the paper config; a subset under quick
// configs).
func (c Config) fig13Display(ds *core.Dataset) []ligen.Input {
	inputs := ds.Inputs()
	var out []ligen.Input
	for _, in := range Fig13LiGenDisplay() {
		features := []float64{float64(in.Ligands), float64(in.Fragments), float64(in.Atoms)}
		if slices.ContainsFunc(inputs, func(have []float64) bool { return core.SameInput(have, features) }) {
			out = append(out, in)
		}
	}
	if len(out) == 0 {
		// Quick configs without the display subset: take up to 12 inputs.
		for i, in := range c.LiGenInputs {
			if i >= 12 {
				break
			}
			out = append(out, in)
		}
	}
	return out
}

// Fig14Panel is one panel of Figure 14: the true Pareto set of one input and
// the sets predicted by both models, with the paper's two quality metrics
// (exact frequency matches and closeness of the achieved points to the true
// front).
type Fig14Panel struct {
	App        string
	InputLabel string
	TrueFront  []pareto.Point
	DS, GP     PredictedSet
}

// PredictedSet is one model's predicted Pareto set evaluated against truth.
type PredictedSet struct {
	Freqs []int
	// Achieved holds the measured (speedup, normalized energy) of the
	// predicted frequencies — what you would really get by running them.
	Achieved []pareto.Point
	// ExactMatches counts predicted frequencies on the true Pareto set.
	ExactMatches int
	// FrontDistance is the mean distance of the achieved points to the
	// true front.
	FrontDistance float64
}

// Fig14 regenerates Figure 14: predicted Pareto sets for LiGen (10000x89x20)
// and Cronos (160x64x64) on the V100, with the domain-specific model trained
// leave-one-input-out so the evaluated input is unseen.
func (c Config) Fig14() ([]Fig14Panel, error) {
	p, err := c.platform()
	if err != nil {
		return nil, err
	}
	q := p.Queues()[0]
	gp, err := c.TrainGP(q)
	if err != nil {
		return nil, err
	}

	var panels []Fig14Panel

	// --- LiGen panel ---
	lds, _, err := c.BuildLiGenDataset(q)
	if err != nil {
		return nil, err
	}
	lin := ligen.Input{Ligands: 10000, Atoms: 89, Fragments: 20}
	lw, err := ligen.NewWorkload(lin)
	if err != nil {
		return nil, err
	}
	lp, err := c.paretoPanel(lds, gp, "LiGen", fmt.Sprintf("%dx%dx%d", lin.Atoms, lin.Fragments, lin.Ligands),
		[]float64{float64(lin.Ligands), float64(lin.Fragments), float64(lin.Atoms)},
		gpmodel.AppStaticFeatures(lw.Profiles()))
	if err != nil {
		return nil, err
	}
	panels = append(panels, lp)

	// --- Cronos panel ---
	cds, _, err := c.BuildCronosDataset(q)
	if err != nil {
		return nil, err
	}
	cw, err := c.cronosWorkload([3]int{160, 64, 64})
	if err != nil {
		return nil, err
	}
	cp, err := c.paretoPanel(cds, gp, "Cronos", "160x64x64",
		[]float64{160, 64, 64}, gpmodel.AppStaticFeatures(cw.Profiles()))
	if err != nil {
		return nil, err
	}
	panels = append(panels, cp)
	return panels, nil
}

// paretoPanel evaluates both models' predicted Pareto sets for one input.
func (c Config) paretoPanel(ds *core.Dataset, gp *gpmodel.Model, app, label string,
	features []float64, mix kernels.InstructionMix) (Fig14Panel, error) {

	truth, err := ds.TrueCurves(features)
	if err != nil {
		return Fig14Panel{}, err
	}
	trueFront, err := ds.TruePareto(features)
	if err != nil {
		return Fig14Panel{}, err
	}
	freqs := make([]int, len(truth))
	byFreq := map[int]core.CurvePoint{}
	for i, t := range truth {
		freqs[i] = t.FreqMHz
		byFreq[t.FreqMHz] = t
	}

	// Domain-specific model trained without the evaluated input.
	dsModel, err := core.TrainHeldOut(ds, c.forestSpec(), c.Seed+3, features)
	if err != nil {
		return Fig14Panel{}, err
	}
	dsFront := dsModel.PredictPareto(features, freqs)
	gpFront := gp.PredictPareto(mix, freqs)

	eval := func(front []pareto.Point) PredictedSet {
		set := PredictedSet{Freqs: pareto.Frequencies(front)}
		for _, f := range set.Freqs {
			t := byFreq[f]
			set.Achieved = append(set.Achieved, pareto.Point{
				FreqMHz: f, Speedup: t.Speedup, NormEnergy: t.NormEnergy,
			})
		}
		set.ExactMatches = pareto.ExactMatches(set.Freqs, pareto.Frequencies(trueFront))
		set.FrontDistance = pareto.MeanFrontDistance(set.Achieved, trueFront)
		return set
	}
	return Fig14Panel{
		App: app, InputLabel: label,
		TrueFront: trueFront,
		DS:        eval(dsFront),
		GP:        eval(gpFront),
	}, nil
}

// AlgorithmComparison reproduces §5.2.1's regressor selection on both
// applications' datasets.
type AlgorithmComparison struct {
	App    string
	Scores []core.AlgorithmScore
}

// CompareRegressors evaluates Linear, Lasso, SVR-RBF and Random Forest with
// the leave-one-input-out protocol on both applications.
//
// The kernel-based SVR is quadratic in the sample count, so the comparison
// caps its dataset (sweep stride >= 4, at most 24 LiGen inputs) — the
// algorithm ranking is insensitive to the sweep density, and the paper's
// protocol allows training on "a part of the frequency configurations".
func (c Config) CompareRegressors() ([]AlgorithmComparison, error) {
	if c.FreqStride < 4 {
		c.FreqStride = 4
	}
	if len(c.LiGenInputs) > 24 {
		thinned := make([]ligen.Input, 0, 24)
		step := len(c.LiGenInputs) / 24
		for i := 0; i < len(c.LiGenInputs) && len(thinned) < 24; i += step {
			thinned = append(thinned, c.LiGenInputs[i])
		}
		c.LiGenInputs = thinned
	}
	p, err := c.platform()
	if err != nil {
		return nil, err
	}
	q := p.Queues()[0]
	specs := []ml.Spec{
		{Algorithm: "linear"},
		{Algorithm: "lasso", Params: map[string]float64{"alpha": 0.001}},
		{Algorithm: "svr", Params: map[string]float64{"C": 10, "epsilon": 0.005}},
		c.forestSpec(),
	}

	var out []AlgorithmComparison
	cds, _, err := c.BuildCronosDataset(q)
	if err != nil {
		return nil, err
	}
	cs, err := core.CompareAlgorithmsParallel(cds, specs, c.Seed+5, c.Jobs)
	if err != nil {
		return nil, err
	}
	out = append(out, AlgorithmComparison{App: "Cronos", Scores: cs})

	lds, _, err := c.BuildLiGenDataset(q)
	if err != nil {
		return nil, err
	}
	ls, err := core.CompareAlgorithmsParallel(lds, specs, c.Seed+6, c.Jobs)
	if err != nil {
		return nil, err
	}
	out = append(out, AlgorithmComparison{App: "LiGen", Scores: ls})
	return out, nil
}

// dedupFloats returns the distinct values in order of first appearance.
func dedupFloats(vals ...float64) []float64 {
	seen := map[float64]bool{}
	var out []float64
	for _, v := range vals {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// GridSearchResult is the random-forest hyper-parameter surface of §5.2.1.
type GridSearchResult struct {
	App    string
	Target string // "speedup" or "norm_energy"
	Points []ml.GridPoint
}

// GridSearchRF runs the paper's grid search (max_depth, n_estimators,
// max_features) on the Cronos dataset for both prediction targets.
func (c Config) GridSearchRF() ([]GridSearchResult, error) {
	p, err := c.platform()
	if err != nil {
		return nil, err
	}
	q := p.Queues()[0]
	ds, _, err := c.BuildCronosDataset(q)
	if err != nil {
		return nil, err
	}
	X, ySp, yNe, err := core.NormalizedXY(ds)
	if err != nil {
		return nil, err
	}
	grid := map[string][]float64{
		"max_depth":    {0, 6, 12},
		"n_estimators": dedupFloats(25, float64(c.Trees)),
		"max_features": {0, 2},
	}
	base := ml.Spec{Algorithm: "forest", Obs: c.Obs}
	var out []GridSearchResult
	for _, tgt := range []struct {
		name string
		y    []float64
	}{{"speedup", ySp}, {"norm_energy", yNe}} {
		pts, err := ml.GridSearchParallel(base, grid, X, tgt.y, 4, c.Seed+9, c.Jobs)
		if err != nil {
			return nil, err
		}
		out = append(out, GridSearchResult{App: "Cronos", Target: tgt.name, Points: pts})
	}
	return out, nil
}
