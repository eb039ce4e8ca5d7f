// MHD example: run a real magnetized blast-wave simulation with the Cronos
// solver (the science), then characterize the same simulation as a GPU
// workload across the frequency range and report its Pareto-optimal
// frequencies — the paper's Figure 4 scenario, as a user would apply it.
package main

import (
	"fmt"
	"log"
	"math"

	"dsenergy/internal/cronos"
	"dsenergy/internal/gpusim"
	"dsenergy/internal/pareto"
	"dsenergy/internal/synergy"
)

func main() {
	// --- Part 1: the science — a blast wave on the CPU -------------------
	s, err := cronos.NewSolver(cronos.Config{
		NX: 32, NY: 32, NZ: 32, Boundary: cronos.Periodic,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	cronos.InitBlastWave(s.Grid, 0.1, 10, 0.15)
	mass0 := s.Grid.TotalMass()
	if err := s.Run(0.05, 50); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("blast wave: %d steps to t=%.4f, dt=%.2e, mass drift %.2e (conserved)\n",
		s.StepsRun, s.Time, s.DT, s.Grid.TotalMass()-mass0)

	// Peak density tells us the shock has formed.
	var rhoMax float64
	for k := 0; k < 32; k++ {
		for j := 0; j < 32; j++ {
			for i := 0; i < 32; i++ {
				if r := s.Grid.At(0, i, j, k); r > rhoMax {
					rhoMax = r
				}
			}
		}
	}
	fmt.Printf("peak compression: rho_max = %.3f (ambient 1.0)\n\n", rhoMax)

	// --- Part 2: energy characterization of the production run -----------
	// The production simulation uses the paper's large grid.
	tb, err := synergy.NewPlatform(42, gpusim.V100Spec(), gpusim.MI100Spec())
	if err != nil {
		log.Fatal(err)
	}
	v100 := tb.Queues()[0]
	w, err := cronos.NewWorkload(160, 64, 64, 20)
	if err != nil {
		log.Fatal(err)
	}

	band := v100.Spec().FreqsAbove(0.4)
	var sweep []int
	for i := 0; i < len(band); i += 8 {
		sweep = append(sweep, band[i])
	}
	sweep = append(sweep, v100.BaselineFreqMHz(), v100.Spec().FMaxMHz())

	ms, err := synergy.Sweep(v100, w, sweep, 5)
	if err != nil {
		log.Fatal(err)
	}
	var ref synergy.Measurement
	for _, m := range ms {
		if m.FreqMHz == v100.BaselineFreqMHz() {
			ref = m
		}
	}

	var pts []pareto.Point
	for _, m := range ms {
		pts = append(pts, pareto.Point{
			FreqMHz:    m.FreqMHz,
			Speedup:    ref.TimeS / m.TimeS,
			NormEnergy: m.EnergyJ / ref.EnergyJ,
		})
	}
	front := pareto.Front(pts)
	fmt.Println("Pareto-optimal frequency configurations (160x64x64):")
	for _, p := range front {
		fmt.Printf("   %5d MHz  speedup %.3f  normalized energy %.3f\n",
			p.FreqMHz, p.Speedup, p.NormEnergy)
	}
	best := front[len(front)-1]
	fmt.Printf("\nmemory-bound stencil: down-clocking to %d MHz saves %.0f%% energy at %.1f%% slowdown\n",
		best.FreqMHz, (1-best.NormEnergy)*100, (1-best.Speedup)*100)

	// --- Part 3: a user-provided conservation law -------------------------
	// Cronos also solves user-supplied conservation laws; here the inviscid
	// Burgers equation steepens a smooth wave into a shock.
	bs, err := cronos.NewScalarSolver(cronos.BurgersLaw{}, 128, 1, 1, cronos.Periodic)
	if err != nil {
		log.Fatal(err)
	}
	bs.Init(func(x, _, _ float64) float64 { return 1 + 0.5*math.Sin(2*math.Pi*x) })
	if err := bs.Run(0.5, 0); err != nil {
		log.Fatal(err)
	}
	var maxGrad float64
	for i := 0; i < 127; i++ {
		if g := math.Abs(bs.At(i+1, 0, 0)-bs.At(i, 0, 0)) / bs.DX; g > maxGrad {
			maxGrad = g
		}
	}
	fmt.Printf("\nuser conservation law (Burgers): %d steps to t=%.2f, shock gradient %.0f\n",
		bs.StepsRun, bs.Time, maxGrad)
}
