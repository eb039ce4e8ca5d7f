// Package tuner turns trained energy models into frequency decisions — the
// integration the paper's conclusion describes: "these models can be easily
// integrated into the SYnergy compilation toolchain ... we can use the
// energy target metric defined in SYnergy to select a specific frequency
// configuration that fits the defined energy target", including SYnergy's
// per-kernel frequency scaling, where each kernel of an application runs at
// its own model-selected clock.
//
// A Policy chooses one point of a predicted speedup/normalized-energy curve;
// a Tuner couples a domain-specific model with a policy; a PerKernelTuner
// holds one model per kernel and drives a queue with per-kernel clocks.
package tuner

import (
	"fmt"
	"math"
	"sort"

	"dsenergy/internal/core"
)

// Policy selects one frequency configuration from a predicted curve.
type Policy interface {
	// Select returns the chosen point. The curve is non-empty and covers
	// the sweep in ascending frequency order.
	Select(curve []core.CurvePoint) core.CurvePoint
}

// MaxPerformance picks the highest predicted speedup (ties: lower energy).
type MaxPerformance struct{}

// Select implements Policy.
func (MaxPerformance) Select(curve []core.CurvePoint) core.CurvePoint {
	best := curve[0]
	for _, c := range curve[1:] {
		// Exact stored-value tie-break between curve points.
		if c.Speedup > best.Speedup ||
			(c.Speedup == best.Speedup && c.NormEnergy < best.NormEnergy) { //dsalint:ignore floateq
			best = c
		}
	}
	return best
}

// MinEnergy picks the lowest predicted normalized energy (ties: higher
// speedup).
type MinEnergy struct{}

// Select implements Policy.
func (MinEnergy) Select(curve []core.CurvePoint) core.CurvePoint {
	best := curve[0]
	for _, c := range curve[1:] {
		// Exact stored-value tie-break between curve points.
		if c.NormEnergy < best.NormEnergy ||
			(c.NormEnergy == best.NormEnergy && c.Speedup > best.Speedup) { //dsalint:ignore floateq
			best = c
		}
	}
	return best
}

// EnergyTarget is SYnergy's energy-target metric: the fastest configuration
// whose predicted normalized energy does not exceed Target (e.g. 0.9 asks
// for at least a 10% energy reduction). When no point meets the target, the
// lowest-energy point is returned — the closest achievable.
type EnergyTarget struct {
	Target float64
}

// Select implements Policy.
func (p EnergyTarget) Select(curve []core.CurvePoint) core.CurvePoint {
	var best core.CurvePoint
	found := false
	for _, c := range curve {
		if c.NormEnergy <= p.Target && (!found || c.Speedup > best.Speedup) {
			best = c
			found = true
		}
	}
	if found {
		return best
	}
	return MinEnergy{}.Select(curve)
}

// PerfConstraint picks the lowest-energy configuration keeping at least
// MinSpeedup of the baseline performance — the "negligible loss" trade-off
// the paper's motivation highlights.
type PerfConstraint struct {
	MinSpeedup float64
}

// Name identifies the policy in reports.
func (p PerfConstraint) Name() string { return fmt.Sprintf("perf>=%.2f", p.MinSpeedup) }

// Select implements Policy.
func (p PerfConstraint) Select(curve []core.CurvePoint) core.CurvePoint {
	var best core.CurvePoint
	found := false
	for _, c := range curve {
		if c.Speedup >= p.MinSpeedup && (!found || c.NormEnergy < best.NormEnergy) {
			best = c
			found = true
		}
	}
	if found {
		return best
	}
	return MaxPerformance{}.Select(curve)
}

// MinEDP minimizes the energy-delay product E·t ∝ NormEnergy / Speedup.
type MinEDP struct{}

// Select implements Policy.
func (MinEDP) Select(curve []core.CurvePoint) core.CurvePoint {
	return minBy(curve, func(c core.CurvePoint) float64 {
		return c.NormEnergy / math.Max(c.Speedup, 1e-9)
	})
}

// MinED2P minimizes the energy-delay² product, weighting performance harder.
type MinED2P struct{}

// Select implements Policy.
func (MinED2P) Select(curve []core.CurvePoint) core.CurvePoint {
	return minBy(curve, func(c core.CurvePoint) float64 {
		s := math.Max(c.Speedup, 1e-9)
		return c.NormEnergy / (s * s)
	})
}

func minBy(curve []core.CurvePoint, key func(core.CurvePoint) float64) core.CurvePoint {
	best := curve[0]
	bk := key(best)
	for _, c := range curve[1:] {
		if k := key(c); k < bk {
			best, bk = c, k
		}
	}
	return best
}

// Tuner couples a domain-specific model with a selection policy.
type Tuner struct {
	Model  *core.Model
	Policy Policy
}

// New builds a tuner. Both arguments are required.
func New(model *core.Model, policy Policy) (*Tuner, error) {
	if model == nil {
		return nil, fmt.Errorf("tuner: nil model")
	}
	if policy == nil {
		return nil, fmt.Errorf("tuner: nil policy")
	}
	return &Tuner{Model: model, Policy: policy}, nil
}

// FreqFor predicts the curve for the given input features over freqs and
// returns the policy's chosen frequency with its predicted point.
func (t *Tuner) FreqFor(features []float64, freqs []int) (int, core.CurvePoint, error) {
	if len(freqs) == 0 {
		return 0, core.CurvePoint{}, fmt.Errorf("tuner: empty frequency sweep")
	}
	sorted := append([]int(nil), freqs...)
	sort.Ints(sorted)
	curves, err := t.Model.PredictCurvesBatch([][]float64{features}, sorted)
	if err != nil {
		return 0, core.CurvePoint{}, fmt.Errorf("tuner: %w", err)
	}
	choice := t.Policy.Select(curves[0])
	return choice.FreqMHz, choice, nil
}
