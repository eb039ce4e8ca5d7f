// Pareto explorer: sweep both applications across both devices and print
// every Pareto front, reproducing the exploration a user performs with the
// paper's characterization tooling (Figures 1-5, 10) before committing to a
// frequency configuration.
package main

import (
	"fmt"
	"log"

	"dsenergy/internal/cronos"
	"dsenergy/internal/gpusim"
	"dsenergy/internal/ligen"
	"dsenergy/internal/pareto"
	"dsenergy/internal/synergy"
)

func main() {
	tb, err := synergy.NewPlatform(42, gpusim.V100Spec(), gpusim.MI100Spec())
	if err != nil {
		log.Fatal(err)
	}

	workloads := []struct {
		name string
		w    synergy.Workload
	}{}
	for _, in := range []ligen.Input{
		{Ligands: 256, Atoms: 31, Fragments: 4},
		{Ligands: 10000, Atoms: 89, Fragments: 20},
	} {
		w, err := ligen.NewWorkload(in)
		if err != nil {
			log.Fatal(err)
		}
		workloads = append(workloads, struct {
			name string
			w    synergy.Workload
		}{"LiGen " + in.String(), w})
	}
	for _, g := range [][3]int{{10, 4, 4}, {160, 64, 64}} {
		w, err := cronos.NewWorkload(g[0], g[1], g[2], 10)
		if err != nil {
			log.Fatal(err)
		}
		workloads = append(workloads, struct {
			name string
			w    synergy.Workload
		}{fmt.Sprintf("Cronos %dx%dx%d", g[0], g[1], g[2]), w})
	}

	for _, q := range tb.Queues() {
		spec := q.Spec()
		band := spec.FreqsAbove(0.4)
		var sweep []int
		for i := 0; i < len(band); i += 6 {
			sweep = append(sweep, band[i])
		}
		sweep = append(sweep, q.BaselineFreqMHz(), spec.FMaxMHz())
		sweep = dedup(sweep)

		fmt.Printf("==== %s (baseline %d MHz) ====\n", spec.Name, q.BaselineFreqMHz())
		for _, wl := range workloads {
			ms, err := synergy.Sweep(q, wl.w, sweep, 3)
			if err != nil {
				log.Fatal(err)
			}
			var ref synergy.Measurement
			for _, m := range ms {
				if m.FreqMHz == q.BaselineFreqMHz() {
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
			fmt.Printf("-- %s: %d Pareto-optimal of %d swept --\n", wl.name, len(front), len(pts))
			for _, p := range front {
				fmt.Printf("   %5d MHz  speedup %6.3f  normE %6.3f\n", p.FreqMHz, p.Speedup, p.NormEnergy)
			}
		}
		fmt.Println()
	}
}

func dedup(fs []int) []int {
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
