// Command reproduce regenerates the paper's complete result set in one run:
// every characterization figure (1-10), the feature tables, the model
// accuracy comparison (Figure 13), the Pareto-set comparison (Figure 14),
// the §5.2.1 regressor comparison, the ablations, the tuner comparison, the
// per-kernel scaling experiment, the strong-scaling study, the resilience
// demonstration and the deadline-aware scheduling campaign — each written to
// its own file under the output directory.
//
// Usage:
//
//	reproduce [-out results] [-quick] [-j N] [-metrics m.json] [-trace t.txt] [-profile p.txt]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"dsenergy/internal/cliutil"
	"dsenergy/internal/experiments"
)

func main() {
	out := flag.String("out", "results", "output directory")
	quick := flag.Bool("quick", false, "reduced-fidelity configuration")
	jobs := flag.Int("j", 0, "worker goroutines (0 = GOMAXPROCS; forest training always runs on GOMAXPROCS); output is identical for every value")
	obsFlags := cliutil.RegisterObs()
	flag.Parse()
	if err := cliutil.CheckJobs("reproduce", *jobs); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	cfg.Jobs = *jobs
	cfg.Obs = obsFlags.Observer()
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fail(err)
	}

	// Per-file wall time lands in the quarantined -profile dump; stdout
	// stays deterministic so progress output is byte-identical across runs.
	write := func(name string, gen func(f *os.File) error) {
		stop := cfg.Obs.Profile().Phase("reproduce/" + name).Start()
		defer stop()
		path := filepath.Join(*out, name)
		f, err := os.Create(path)
		if err != nil {
			fail(err)
		}
		if err := gen(f); err != nil {
			f.Close()
			fail(fmt.Errorf("%s: %w", name, err))
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s\n", path)
	}

	// Tables.
	write("tables.txt", func(f *os.File) error {
		experiments.RenderTable1(f)
		fmt.Fprintln(f)
		experiments.RenderTable2(f)
		return nil
	})

	// Characterization figures.
	figGens := []struct {
		name string
		gen  func() (experiments.Figure, error)
	}{
		{"fig01.txt", cfg.Fig1}, {"fig02.txt", cfg.Fig2}, {"fig03.txt", cfg.Fig3},
		{"fig04.txt", cfg.Fig4}, {"fig05.txt", cfg.Fig5}, {"fig06.txt", cfg.Fig6},
		{"fig07.txt", cfg.Fig7}, {"fig08.txt", cfg.Fig8}, {"fig09.txt", cfg.Fig9},
		{"fig10.txt", cfg.Fig10},
	}
	for _, fg := range figGens {
		fg := fg
		write(fg.name, func(f *os.File) error {
			fig, err := fg.gen()
			if err != nil {
				return err
			}
			experiments.RenderFigure(f, fig)
			return nil
		})
	}

	// Model evaluation.
	write("fig13.txt", func(f *os.File) error {
		r, err := cfg.Fig13()
		if err != nil {
			return err
		}
		experiments.RenderFig13(f, r)
		return nil
	})
	write("fig14.txt", func(f *os.File) error {
		panels, err := cfg.Fig14()
		if err != nil {
			return err
		}
		experiments.RenderFig14(f, panels)
		return nil
	})
	write("regressors.txt", func(f *os.File) error {
		cmp, err := cfg.CompareRegressors()
		if err != nil {
			return err
		}
		experiments.RenderAlgorithmComparison(f, cmp)
		return nil
	})
	write("ablations.txt", func(f *os.File) error {
		return cfg.RenderAblations(f)
	})
	write("gridsearch.txt", func(f *os.File) error {
		gs, err := cfg.GridSearchRF()
		if err != nil {
			return err
		}
		experiments.RenderGridSearch(f, gs)
		return nil
	})
	write("tuners.txt", func(f *os.File) error {
		r, err := cfg.CompareTuners()
		if err != nil {
			return err
		}
		experiments.RenderTuningComparison(f, r)
		return nil
	})
	write("perkernel.txt", func(f *os.File) error {
		r, err := cfg.FutureWorkPerKernel()
		if err != nil {
			return err
		}
		fmt.Fprintln(f, "== per-kernel frequency scaling (§7 future work), Cronos 160x64x64 ==")
		kernels := make([]string, 0, len(r.Plan))
		for k := range r.Plan {
			kernels = append(kernels, k)
		}
		sort.Strings(kernels)
		for _, k := range kernels {
			fmt.Fprintf(f, "   %-16s -> %d MHz\n", k, r.Plan[k])
		}
		fmt.Fprintf(f, "   measured: speedup %.3f, energy saving %.1f%%\n",
			r.Outcome.Speedup(), r.Outcome.EnergySaving()*100)
		return nil
	})
	write("scaling.txt", func(f *os.File) error {
		lr, cr, err := cfg.StrongScaling([]int{1, 2, 4, 8, 16})
		if err != nil {
			return err
		}
		fmt.Fprintln(f, "== strong scaling (V100 cluster) ==")
		fmt.Fprintf(f, "%-8s %12s %12s %12s %12s\n", "devices", "ligen t(s)", "ligen eff", "cronos t(s)", "cronos eff")
		for i := range lr {
			fmt.Fprintf(f, "%-8d %12.4f %12.2f %12.4f %12.2f\n",
				lr[i].Devices, lr[i].TimeS, lr[i].Efficiency, cr[i].TimeS, cr[i].Efficiency)
		}
		return nil
	})
	write("resilience.txt", func(f *os.File) error {
		return cfg.RenderResilience(f)
	})
	// Machine-checkable verification of every headline claim.
	var failed int
	write("schedule.txt", func(f *os.File) error {
		n, err := cfg.RenderSchedule(f)
		failed += n
		return err
	})
	write("shapechecks.txt", func(f *os.File) error {
		checks, err := cfg.VerifyShapes()
		if err != nil {
			return err
		}
		failed += experiments.RenderShapeChecks(f, checks)
		return nil
	})
	if err := obsFlags.Write(cfg.Obs); err != nil {
		fail(err)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "reproduce: %d checks FAILED (see schedule.txt / shapechecks.txt)\n", failed)
		os.Exit(1)
	}
	fmt.Println("done — all checks passed")
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "reproduce: %v\n", err)
	os.Exit(1)
}
