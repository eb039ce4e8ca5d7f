// Command serve runs the frequency-advisor serving campaign: four advisor
// shards (LiGen and Cronos models on V100 and MI100 silicon) driven by
// seeded open- and closed-loop load generators on simulated time, with a
// mid-load hot-reload of a retrained model, a corrupt upload that must be
// rejected, and malformed/unmodeled requests absorbed by the admission
// tier. The output ends with CHECK lines asserting zero lost requests,
// bit-identical batched inference and per-version response attribution; any
// failed check exits 1.
//
// Usage:
//
//	serve [-quick] [-requests N] [-j N] [-metrics m.json] [-trace t.txt] [-profile p.txt]
package main

import (
	"flag"
	"fmt"
	"os"

	"dsenergy/internal/cliutil"
	"dsenergy/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "reduced-fidelity configuration")
	requests := flag.Int("requests", 0, "per-shard request budget (0 = campaign default 500000; four shards make the default a 2M-request load)")
	jobs := flag.Int("j", 0, "worker goroutines (0 = GOMAXPROCS; forest training always runs on GOMAXPROCS); output is identical for every value")
	obsFlags := cliutil.RegisterObs()
	flag.Parse()
	if err := cliutil.CheckJobs("serve", *jobs); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *requests < 0 {
		fmt.Fprintln(os.Stderr, "serve: -requests must be >= 0")
		os.Exit(2)
	}

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	cfg.Jobs = *jobs
	cfg.ServeRequests = *requests
	cfg.Obs = obsFlags.Observer()

	failed, err := cfg.RenderServe(os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		os.Exit(1)
	}
	if err := obsFlags.Write(cfg.Obs); err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		os.Exit(1)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "serve: %d checks FAILED\n", failed)
		os.Exit(1)
	}
}
