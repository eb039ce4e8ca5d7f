package experiments

import (
	"fmt"
	"io"

	"dsenergy/internal/core"
	"dsenergy/internal/cronos"
	"dsenergy/internal/tuner"
)

// TuningComparison quantifies the deployment trade-off between the paper's
// model-driven frequency selection and the online-search governors of the
// related work (EAR/GEOPM style): for held-out inputs, how close does each
// approach get to the oracle decision, and how many application executions
// does it spend to decide?
type TuningComparison struct {
	InputLabel string
	// Energy at the chosen clock (normalized to the baseline), per tuner.
	OracleEnergy float64
	ModelEnergy  float64
	OnlineEnergy float64
	// Performance kept (speedup vs baseline) at the chosen clock.
	OracleSpeedup float64
	ModelSpeedup  float64
	OnlineSpeedup float64
	// Decision cost in application executions.
	ModelMeasurements  int // always 0: the model predicts
	OnlineMeasurements int
}

// CompareTuners runs the comparison on the Cronos grid ladder with a
// performance-constraint policy, evaluating the largest grid held out from
// model training.
func (c Config) CompareTuners() (TuningComparison, error) {
	p, err := c.Platform()
	if err != nil {
		return TuningComparison{}, err
	}
	q := p.Queues()[0]
	ds, _, err := c.BuildCronosDataset(q)
	if err != nil {
		return TuningComparison{}, err
	}
	policy := tuner.PerfConstraint{MinSpeedup: 0.98}
	held := []float64{160, 64, 64}
	out := TuningComparison{InputLabel: core.FeatureKey(held)}

	// Oracle: perfect information.
	oracle, err := tuner.Oracle(ds, held, policy)
	if err != nil {
		return TuningComparison{}, err
	}
	out.OracleEnergy, out.OracleSpeedup = oracle.NormEnergy, oracle.Speedup

	// Model-driven: trained without the evaluated input, zero deploy-time
	// measurements. The chosen clock is scored against the truth.
	model, err := core.TrainHeldOut(ds, c.ForestSpec(), c.Seed+41, held)
	if err != nil {
		return TuningComparison{}, err
	}
	tn, err := tuner.New(model, policy)
	if err != nil {
		return TuningComparison{}, err
	}
	truth, err := ds.TrueCurves(held)
	if err != nil {
		return TuningComparison{}, err
	}
	freqs := make([]int, len(truth))
	truthBy := map[int]core.CurvePoint{}
	for i, t := range truth {
		freqs[i] = t.FreqMHz
		truthBy[t.FreqMHz] = t
	}
	choiceFreq, _, err := tn.FreqFor(held, freqs)
	if err != nil {
		return TuningComparison{}, err
	}
	achieved := truthBy[choiceFreq]
	out.ModelEnergy, out.ModelSpeedup = achieved.NormEnergy, achieved.Speedup

	// Online search: measures the real application to decide.
	w, err := cronos.NewWorkload(160, 64, 64, c.CronosSteps)
	if err != nil {
		return TuningComparison{}, err
	}
	res, err := tuner.OnlineSearch(q, w, freqs, c.Reps, policy)
	if err != nil {
		return TuningComparison{}, err
	}
	onlineAchieved := truthBy[res.Choice.FreqMHz]
	out.OnlineEnergy, out.OnlineSpeedup = onlineAchieved.NormEnergy, onlineAchieved.Speedup
	out.OnlineMeasurements = res.Measurements
	return out, nil
}

// RenderTuningComparison prints the tuner comparison.
func RenderTuningComparison(w io.Writer, r TuningComparison) {
	fmt.Fprintf(w, "== tuner comparison (Cronos %s, perf >= 0.98 policy) ==\n", r.InputLabel)
	fmt.Fprintf(w, "%-14s %12s %10s %14s\n", "tuner", "norm energy", "speedup", "app executions")
	fmt.Fprintf(w, "%-14s %12.4f %10.4f %14d\n", "oracle", r.OracleEnergy, r.OracleSpeedup, 0)
	fmt.Fprintf(w, "%-14s %12.4f %10.4f %14d\n", "model-driven", r.ModelEnergy, r.ModelSpeedup, r.ModelMeasurements)
	fmt.Fprintf(w, "%-14s %12.4f %10.4f %14d\n", "online-search", r.OnlineEnergy, r.OnlineSpeedup, r.OnlineMeasurements)
}
