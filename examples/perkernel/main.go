// Per-kernel frequency scaling example — the paper's future-work scenario
// (§7): train one domain-specific model per application kernel and let each
// kernel of a Cronos run execute at its own model-selected clock, instead of
// one frequency for the whole program.
package main

import (
	"fmt"
	"log"

	"dsenergy/internal/core"
	"dsenergy/internal/cronos"
	"dsenergy/internal/gpusim"
	"dsenergy/internal/ml"
	"dsenergy/internal/synergy"
	"dsenergy/internal/tuner"
)

func main() {
	tb, err := synergy.NewPlatform(42, gpusim.V100Spec(), gpusim.MI100Spec())
	if err != nil {
		log.Fatal(err)
	}
	v100 := tb.Queues()[0]

	// Training inputs: the Cronos grid ladder (the 160x64x64 target is
	// deliberately included only in the sweep, not special-cased).
	var wls []core.FeaturedWorkload
	for _, g := range [][3]int{{20, 8, 8}, {40, 16, 16}, {80, 32, 32}, {160, 64, 64}} {
		w, err := cronos.NewWorkload(g[0], g[1], g[2], 8)
		if err != nil {
			log.Fatal(err)
		}
		wls = append(wls, core.FeaturedWorkload{
			Workload: w,
			Features: []float64{float64(g[0]), float64(g[1]), float64(g[2])},
		})
	}

	band := v100.Spec().FreqsAbove(0.45)
	var sweep []int
	for i := 0; i < len(band); i += 6 {
		sweep = append(sweep, band[i])
	}
	sweep = append(sweep, v100.BaselineFreqMHz(), v100.Spec().FMaxMHz())

	// Keep at most 1% predicted slowdown per kernel.
	policy := tuner.PerfConstraint{MinSpeedup: 0.99}
	pk, err := tuner.TrainPerKernel(v100, core.CronosSchema(), wls,
		core.BuildConfig{Freqs: dedup(sweep), Reps: 5},
		ml.Spec{Algorithm: "forest"}, policy, 1)
	if err != nil {
		log.Fatal(err)
	}

	input := []float64{160, 64, 64}
	plan, err := pk.PlanFor(input)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("per-kernel plan for Cronos 160x64x64 (policy %s, baseline %d MHz):\n",
		policy.Name(), v100.BaselineFreqMHz())
	for _, k := range pk.Kernels() {
		c := plan.Predicted[k]
		fmt.Printf("   %-16s -> %5d MHz (predicted speedup %.3f, energy %.3f)\n",
			k, plan.FreqByKernel[k], c.Speedup, c.NormEnergy)
	}

	w, _ := cronos.NewWorkload(160, 64, 64, 8)
	out, err := pk.Execute(v100, w, plan, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmeasured outcome vs whole-app baseline clock:\n")
	fmt.Printf("   time:   %.4fs -> %.4fs (speedup %.3f)\n",
		out.BaselineTimeS, out.TunedTimeS, out.Speedup())
	fmt.Printf("   energy: %.2fJ -> %.2fJ (saving %.1f%%)\n",
		out.BaselineEnergyJ, out.TunedEnergyJ, out.EnergySaving()*100)
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
