// Command reproduce regenerates the paper's complete result set in one run:
// every characterization figure (1-10), the feature tables, the model
// accuracy comparison (Figure 13), the Pareto-set comparison (Figure 14),
// the §5.2.1 regressor comparison, the ablations, the tuner comparison, the
// per-kernel scaling experiment, the strong-scaling study, the resilience
// demonstration and the deadline-aware scheduling campaign — each written to
// its own file under the output directory, in the order of
// experiments.ResultFiles.
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
	var failed int
	for _, rf := range experiments.ResultFiles {
		failed += write(cfg, *out, rf)
	}
	if err := obsFlags.Write(cfg.Obs); err != nil {
		fail(err)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "reproduce: %d checks FAILED (see schedule.txt / shapechecks.txt)\n", failed)
		os.Exit(1)
	}
	fmt.Println("done — all checks passed")
}

// write generates one result file under dir and returns its failed checks.
func write(cfg experiments.Config, dir string, rf experiments.ResultFile) int {
	stop := cfg.Obs.Profile().Phase("reproduce/" + rf.Name).Start()
	defer stop()
	path := filepath.Join(dir, rf.Name)
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	failed, err := rf.Write(cfg, f)
	if err != nil {
		f.Close()
		fail(fmt.Errorf("%s: %w", rf.Name, err))
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %s\n", path)
	return failed
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "reproduce: %v\n", err)
	os.Exit(1)
}
