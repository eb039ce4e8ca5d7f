// Drug discovery example: run a real (CPU-reference) virtual-screening
// campaign with the LiGen docking engine, then use a domain-specific energy
// model to pick the core frequency that would run the campaign's GPU
// equivalent within an energy budget.
//
// This mirrors the paper's motivating scenario: the EXSCALATE platform
// screens enormous chemical libraries, so even a 10% energy saving at a few
// percent slowdown matters at campaign scale.
package main

import (
	"fmt"
	"log"

	"dsenergy/internal/core"
	"dsenergy/internal/gpusim"
	"dsenergy/internal/ligen"
	"dsenergy/internal/ml"
	"dsenergy/internal/synergy"
	"dsenergy/internal/xrand"
)

func main() {
	// --- Part 1: the science — dock a small library on the CPU ----------
	pocket, err := ligen.GenPocket(xrand.New(7), 24, 12)
	if err != nil {
		log.Fatal(err)
	}
	lib, err := ligen.GenLibrary(xrand.New(11), 24, 31, 4)
	if err != nil {
		log.Fatal(err)
	}
	ranking, err := ligen.Screen(lib, pocket, ligen.TestParams(), 0, 99)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("top candidates (CPU reference docking):")
	for _, r := range ranking[:5] {
		fmt.Printf("   %-12s score %8.2f\n", r.Name, r.Score)
	}

	// --- Part 2: energy modeling for the full campaign ------------------
	// The production campaign screens 10000 ligands per batch on the GPU.
	tb, err := synergy.NewPlatform(42, gpusim.V100Spec(), gpusim.MI100Spec())
	if err != nil {
		log.Fatal(err)
	}
	v100 := tb.Queues()[0]

	// Training phase (Figure 11): measure a grid of campaign shapes.
	var wls []core.FeaturedWorkload
	for _, l := range []int{256, 1024, 4096, 10000} {
		for _, a := range []int{31, 63, 89} {
			w, err := ligen.NewWorkload(ligen.Input{Ligands: l, Atoms: a, Fragments: 8})
			if err != nil {
				log.Fatal(err)
			}
			wls = append(wls, core.FeaturedWorkload{
				Workload: w,
				Features: []float64{float64(l), 8, float64(a)},
			})
		}
	}
	sweep := everyNth(v100.Spec().FreqsAbove(0.4), 6)
	sweep = append(sweep, v100.BaselineFreqMHz())
	ds, err := core.BuildDataset(v100, core.LiGenSchema(), wls,
		core.BuildConfig{Freqs: dedupSorted(sweep), Reps: 5})
	if err != nil {
		log.Fatal(err)
	}
	model, err := core.TrainNormalized(ds, ml.Spec{Algorithm: "forest"}, 1)
	if err != nil {
		log.Fatal(err)
	}

	// Prediction phase (Figure 12) for an UNSEEN campaign shape.
	campaign := []float64{8000, 8, 74} // ligands, fragments, atoms
	curves := model.PredictCurves(campaign, dedupSorted(sweep))
	fmt.Printf("\npredicted trade-off for unseen campaign %v:\n", campaign)

	// Pick the lowest-energy configuration that keeps >= 97%% performance.
	best := curves[len(curves)-1]
	found := false
	for _, c := range curves {
		if c.Speedup >= 0.97 && (!found || c.NormEnergy < best.NormEnergy) {
			best = c
			found = true
		}
	}
	fmt.Printf("   chosen frequency: %d MHz (predicted speedup %.3f, normalized energy %.3f)\n",
		best.FreqMHz, best.Speedup, best.NormEnergy)

	// Verify against the simulated ground truth.
	w, _ := ligen.NewWorkload(ligen.Input{Ligands: 8000, Atoms: 74, Fragments: 8})
	ref, _ := synergy.MeasureAt(v100, w, v100.BaselineFreqMHz(), 5)
	got, _ := synergy.MeasureAt(v100, w, best.FreqMHz, 5)
	fmt.Printf("   measured:        speedup %.3f, normalized energy %.3f\n",
		ref.TimeS/got.TimeS, got.EnergyJ/ref.EnergyJ)
}

func everyNth(fs []int, n int) []int {
	var out []int
	for i := 0; i < len(fs); i += n {
		out = append(out, fs[i])
	}
	if out[len(out)-1] != fs[len(fs)-1] {
		out = append(out, fs[len(fs)-1])
	}
	return out
}

func dedupSorted(fs []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, f := range fs {
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	// Insertion sort keeps the list ascending (it is nearly sorted).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
