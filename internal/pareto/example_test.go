package pareto_test

import (
	"fmt"

	"dsenergy/internal/pareto"
)

// ExampleFront extracts the Pareto-optimal frequency configurations from a
// set of measured (speedup, normalized energy) outcomes.
func ExampleFront() {
	points := []pareto.Point{
		{FreqMHz: 1597, Speedup: 1.20, NormEnergy: 1.35},
		{FreqMHz: 1297, Speedup: 1.00, NormEnergy: 1.00},
		{FreqMHz: 1000, Speedup: 0.82, NormEnergy: 0.88},
		{FreqMHz: 900, Speedup: 0.75, NormEnergy: 0.95}, // dominated by 1000
	}
	for _, p := range pareto.Front(points) {
		fmt.Printf("%d MHz: speedup %.2f, energy %.2f\n", p.FreqMHz, p.Speedup, p.NormEnergy)
	}
	// Output:
	// 1597 MHz: speedup 1.20, energy 1.35
	// 1297 MHz: speedup 1.00, energy 1.00
	// 1000 MHz: speedup 0.82, energy 0.88
}
