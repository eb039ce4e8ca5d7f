// Command evalmodels regenerates the paper's model-evaluation results:
// Figure 13 (MAPE of the domain-specific models vs the general-purpose model
// for every input, both applications) and Figure 14 (predicted Pareto sets
// against the true Pareto set), plus the ablation studies listed in
// DESIGN.md.
//
// Usage:
//
//	evalmodels [-fig 13|14|all] [-ablations] [-quick] [-j N]
//	           [-metrics m.json] [-trace t.txt] [-profile p.txt]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"dsenergy/internal/cliutil"
	"dsenergy/internal/experiments"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 13, 14 or all")
	ablations := flag.Bool("ablations", false, "also run the ablation studies")
	perkernel := flag.Bool("perkernel", false, "also run the per-kernel scaling experiment (§7)")
	tuners := flag.Bool("tuners", false, "also run the model-vs-online tuner comparison")
	quick := flag.Bool("quick", false, "reduced-fidelity sweep (faster)")
	jobs := flag.Int("j", 0, "worker goroutines (0 = GOMAXPROCS; forest training always runs on GOMAXPROCS); output is identical for every value")
	obsFlags := cliutil.RegisterObs()
	flag.Parse()
	if err := cliutil.CheckJobs("evalmodels", *jobs); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	cfg.Jobs = *jobs
	cfg.Obs = obsFlags.Observer()

	if *fig == "13" || *fig == "all" {
		r, err := cfg.Fig13()
		if err != nil {
			fail(err)
		}
		experiments.RenderFig13(os.Stdout, r)
		fmt.Println()
	}
	if *fig == "14" || *fig == "all" {
		panels, err := cfg.Fig14()
		if err != nil {
			fail(err)
		}
		experiments.RenderFig14(os.Stdout, panels)
		fmt.Println()
	}
	if *ablations {
		if err := cfg.RenderAblations(os.Stdout); err != nil {
			fail(err)
		}
	}
	if *tuners {
		r, err := cfg.CompareTuners()
		if err != nil {
			fail(err)
		}
		experiments.RenderTuningComparison(os.Stdout, r)
		fmt.Println()
	}
	if *perkernel {
		r, err := cfg.FutureWorkPerKernel()
		if err != nil {
			fail(err)
		}
		fmt.Println("== per-kernel frequency scaling (§7 future work), Cronos 160x64x64 ==")
		kernels := make([]string, 0, len(r.Plan))
		for k := range r.Plan {
			kernels = append(kernels, k)
		}
		sort.Strings(kernels)
		for _, k := range kernels {
			fmt.Printf("   %-16s -> %d MHz\n", k, r.Plan[k])
		}
		fmt.Printf("   measured: speedup %.3f, energy saving %.1f%%\n",
			r.Outcome.Speedup(), r.Outcome.EnergySaving()*100)
	}
	if err := obsFlags.Write(cfg.Obs); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "evalmodels: %v\n", err)
	os.Exit(1)
}
