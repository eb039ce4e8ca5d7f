package core

import (
	"context"
	"fmt"

	"dsenergy/internal/ml"
	"dsenergy/internal/parallel"
)

// InputAccuracy is one bar pair of Figure 13: the prediction error of a
// model for one held-out input, measured as MAPE over all frequency
// configurations, separately for speedup and normalized energy.
type InputAccuracy struct {
	Input          []float64
	Label          string
	SpeedupMAPE    float64
	NormEnergyMAPE float64
}

// LeaveOneInputOut runs the paper's validation protocol (§5.2): for every
// distinct input feature vector f⃗, the model is retrained on D \ D_v (all
// samples of the other inputs) and evaluated on D_v (the held-out input's
// samples at every frequency), comparing the predicted speedup and
// normalized-energy curves against the measured ones. The folds run on a
// worker pool (workers <= 0 selects GOMAXPROCS, 1 runs serially); every fold
// retrains from the same seed on a disjoint input, so the result is
// identical for every worker count.
func LeaveOneInputOut(ds *Dataset, spec ml.Spec, seed uint64, workers int) ([]InputAccuracy, error) {
	return heldOutFolds(ds, []ml.Spec{spec}, seed, workers)
}

// heldOutFolds runs the leave-one-input-out protocol for every spec on one
// worker pool. Task k trains specs[k/n] without input k%n of the n inputs,
// so each spec's folds come back contiguous and in input order.
func heldOutFolds(ds *Dataset, specs []ml.Spec, seed uint64, workers int) ([]InputAccuracy, error) {
	inputs := ds.Inputs()
	n := len(inputs)
	if n < 2 {
		return nil, fmt.Errorf("core: leave-one-input-out needs >= 2 inputs, have %d", n)
	}
	return parallel.Map(context.Background(), len(specs)*n, workers, func(_ context.Context, k int) (InputAccuracy, error) {
		spec := specs[k/n]
		acc, err := EvalHeldOut(ds, spec, seed, inputs[k%n])
		if err != nil {
			return InputAccuracy{}, fmt.Errorf("core: %s: %w", spec.Algorithm, err)
		}
		return acc, nil
	})
}

// TrainHeldOut trains a normalized model on every input except held — one
// fold of the leave-one-input-out protocol, also used by the Figure 14
// Pareto evaluation so the assessed input is genuinely unseen.
func TrainHeldOut(ds *Dataset, spec ml.Spec, seed uint64, held []float64) (*Model, error) {
	train := &Dataset{
		Schema:          ds.Schema,
		Device:          ds.Device,
		BaselineFreqMHz: ds.BaselineFreqMHz,
	}
	for _, s := range ds.Samples {
		if !SameInput(s.Features, held) {
			train.Samples = append(train.Samples, s)
		}
	}
	model, err := TrainNormalized(train, spec, seed)
	if err != nil {
		return nil, fmt.Errorf("core: training without input %s: %w", FeatureKey(held), err)
	}
	return model, nil
}

// EvalHeldOut trains on every input except held and scores the prediction
// for held.
func EvalHeldOut(ds *Dataset, spec ml.Spec, seed uint64, held []float64) (InputAccuracy, error) {
	model, err := TrainHeldOut(ds, spec, seed, held)
	if err != nil {
		return InputAccuracy{}, err
	}
	return ScoreModel(ds, model, held, held)
}

// NormalizedXY flattens the dataset into the normalized design matrix and
// target vectors used by TrainNormalized, exposed for hyper-parameter
// searches over the same training problem.
func NormalizedXY(ds *Dataset) (X [][]float64, speedup, normEnergy []float64, err error) {
	for _, input := range ds.Inputs() {
		curves, err := ds.TrueCurves(input)
		if err != nil {
			return nil, nil, nil, err
		}
		for _, c := range curves {
			X = append(X, sampleRow(input, c.FreqMHz))
			speedup = append(speedup, c.Speedup)
			normEnergy = append(normEnergy, c.NormEnergy)
		}
	}
	return X, speedup, normEnergy, nil
}

// ScoreModel compares the curve a model predicts at features against the
// dataset's measured truth for input and returns the MAPE pair. features
// is what the model was trained on: the input itself for a domain-specific
// model, an application's static code features for the general-purpose
// one, zeros for a model trained blind to its inputs.
func ScoreModel(ds *Dataset, model *Model, input, features []float64) (InputAccuracy, error) {
	return ScoreCurve(ds, input, func(freqs []int) ([]CurvePoint, error) {
		return model.AppendCurve(nil, features, freqs)
	})
}

// ScoreCurve compares the curve predict returns for the input's swept
// clocks, in the dataset's order, against the dataset's measured truth and
// returns the MAPE pair.
func ScoreCurve(ds *Dataset, input []float64, predict func(freqs []int) ([]CurvePoint, error)) (InputAccuracy, error) {
	truth, err := ds.TrueCurves(input)
	if err != nil {
		return InputAccuracy{}, err
	}
	freqs := make([]int, len(truth))
	for i, c := range truth {
		freqs[i] = c.FreqMHz
	}
	pred, err := predict(freqs)
	if err != nil {
		return InputAccuracy{}, err
	}
	if len(pred) != len(truth) {
		return InputAccuracy{}, fmt.Errorf("core: predicted %d points, truth has %d", len(pred), len(truth))
	}
	ts, tn := make([]float64, len(truth)), make([]float64, len(truth))
	ps, pn := make([]float64, len(truth)), make([]float64, len(truth))
	for i := range truth {
		ts[i], tn[i] = truth[i].Speedup, truth[i].NormEnergy
		ps[i], pn[i] = pred[i].Speedup, pred[i].NormEnergy
	}
	return InputAccuracy{
		Input:          append([]float64(nil), input...),
		Label:          FeatureKey(input),
		SpeedupMAPE:    ml.MAPE(ts, ps),
		NormEnergyMAPE: ml.MAPE(tn, pn),
	}, nil
}

// AlgorithmScore is one algorithm's mean leave-one-input-out MAPE pair
// across inputs.
type AlgorithmScore struct {
	Spec               ml.Spec
	MeanSpeedupMAPE    float64
	MeanNormEnergyMAPE float64
}

// CompareAlgorithmsParallel reproduces §5.2.1's regressor comparison: each
// spec is evaluated on the dataset with the leave-one-input-out protocol.
// The (algorithm, held-out input) pairs fan out on one worker pool
// (workers <= 0 selects GOMAXPROCS, 1 runs serially), so an expensive
// algorithm's folds spread over every worker; each algorithm's fold scores
// are then averaged in input order, identically for every worker count.
func CompareAlgorithmsParallel(ds *Dataset, specs []ml.Spec, seed uint64, workers int) ([]AlgorithmScore, error) {
	accs, err := heldOutFolds(ds, specs, seed, workers)
	if err != nil {
		return nil, err
	}
	scores := make([]AlgorithmScore, len(specs))
	for i, spec := range specs {
		n := len(accs) / len(specs)
		var ss, se float64
		for _, a := range accs[i*n : (i+1)*n] {
			ss += a.SpeedupMAPE
			se += a.NormEnergyMAPE
		}
		scores[i] = AlgorithmScore{
			Spec:               spec,
			MeanSpeedupMAPE:    ss / float64(n),
			MeanNormEnergyMAPE: se / float64(n),
		}
	}
	return scores, nil
}
