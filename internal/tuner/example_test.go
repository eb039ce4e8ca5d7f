package tuner_test

import (
	"fmt"

	"dsenergy/internal/core"
	"dsenergy/internal/tuner"
)

// ExampleEnergyTarget shows SYnergy's energy-target policy selecting the
// fastest configuration within an energy budget.
func ExampleEnergyTarget() {
	curve := []core.CurvePoint{
		{FreqMHz: 1000, Speedup: 0.82, NormEnergy: 0.88},
		{FreqMHz: 1200, Speedup: 0.93, NormEnergy: 0.92},
		{FreqMHz: 1297, Speedup: 1.00, NormEnergy: 1.00},
		{FreqMHz: 1597, Speedup: 1.20, NormEnergy: 1.35},
	}
	policy := tuner.EnergyTarget{Target: 0.95} // ask for >= 5% energy reduction
	choice := policy.Select(curve)
	fmt.Printf("%d MHz (speedup %.2f at %.0f%% of baseline energy)\n",
		choice.FreqMHz, choice.Speedup, choice.NormEnergy*100)
	// Output:
	// 1200 MHz (speedup 0.93 at 92% of baseline energy)
}
