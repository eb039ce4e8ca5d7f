// Command trainmodel runs the training-phase workflow of the paper (§4.2.2,
// Figure 11): it measures the Cronos and LiGen input grids across the
// frequency sweep on the simulated V100, fits the domain-specific models,
// reports the regressor comparison of §5.2.1 (Linear, Lasso, SVR-RBF,
// Random Forest) and the random-forest grid search.
//
// Usage:
//
//	trainmodel [-quick] [-j N] [-compare] [-gridsearch] [-tables]
//	           [-metrics m.json] [-trace t.txt] [-profile p.txt]
package main

import (
	"flag"
	"fmt"
	"os"

	"dsenergy/internal/cliutil"
	"dsenergy/internal/core"
	"dsenergy/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "reduced-fidelity sweep (faster)")
	jobs := flag.Int("j", 0, "worker goroutines (0 = GOMAXPROCS; forest training always runs on GOMAXPROCS); output is identical for every value")
	compare := flag.Bool("compare", true, "run the §5.2.1 regressor comparison")
	gridsearch := flag.Bool("gridsearch", false, "run the random-forest grid search (slow)")
	loocv := flag.Bool("loocv", true, "run the leave-one-input-out accuracy report")
	tables := flag.Bool("tables", true, "print the feature tables (Tables 1-2)")
	obsFlags := cliutil.RegisterObs()
	flag.Parse()
	if err := cliutil.CheckJobs("trainmodel", *jobs); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	cfg.Jobs = *jobs
	cfg.Obs = obsFlags.Observer()

	if *tables {
		experiments.RenderTable1(os.Stdout)
		fmt.Println()
		experiments.RenderTable2(os.Stdout)
		fmt.Println()
	}

	p, err := cfg.Platform()
	if err != nil {
		fail(err)
	}
	q := p.Queues()[0] // V100, the paper's training device

	cds, _, err := cfg.BuildCronosDataset(q)
	if err != nil {
		fail(err)
	}
	fmt.Printf("Cronos dataset: %d inputs x %d samples on %s (baseline %d MHz)\n",
		len(cds.Inputs()), len(cds.Samples), cds.Device, cds.BaselineFreqMHz)
	lds, _, err := cfg.BuildLiGenDataset(q)
	if err != nil {
		fail(err)
	}
	fmt.Printf("LiGen dataset:  %d inputs x %d samples on %s (baseline %d MHz)\n\n",
		len(lds.Inputs()), len(lds.Samples), lds.Device, lds.BaselineFreqMHz)

	if *loocv {
		for _, ds := range []*core.Dataset{cds, lds} {
			accs, err := core.LeaveOneInputOut(ds, cfg.ForestSpec(), cfg.Seed, 1)
			if err != nil {
				fail(err)
			}
			fmt.Printf("leave-one-input-out accuracy (%s, random forest):\n", ds.Schema.App)
			for _, a := range accs {
				fmt.Printf("   %-18s speedup MAPE %.4f   energy MAPE %.4f\n",
					a.Label, a.SpeedupMAPE, a.NormEnergyMAPE)
			}
			fmt.Println()
		}
	}

	if *compare {
		cmp, err := cfg.CompareRegressors()
		if err != nil {
			fail(err)
		}
		experiments.RenderAlgorithmComparison(os.Stdout, cmp)
		fmt.Println()
	}
	if *gridsearch {
		gs, err := cfg.GridSearchRF()
		if err != nil {
			fail(err)
		}
		experiments.RenderGridSearch(os.Stdout, gs)
	}
	if err := obsFlags.Write(cfg.Obs); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "trainmodel: %v\n", err)
	os.Exit(1)
}
