// Command dataset runs the measurement campaign of the training phase
// (Figure 11, steps 1-3) and writes the resulting dataset as CSV
// (Dataset.WriteCSV) for analysis outside the pipeline. No program reads the
// file back: the modeling commands re-run the sweep they train on.
//
// Usage:
//
//	dataset -app cronos  [-device v100|mi100] [-quick] [-j N] [-o cronos.csv]
//	dataset -app ligen   [-device v100|mi100] [-quick] [-j N] [-o ligen.csv]
package main

import (
	"flag"
	"fmt"
	"os"

	"dsenergy/internal/cliutil"
	"dsenergy/internal/core"
	"dsenergy/internal/experiments"
	"dsenergy/internal/synergy"
)

func main() {
	app := flag.String("app", "cronos", "application to measure: cronos or ligen")
	device := flag.String("device", "v100", "device to measure on: v100 or mi100")
	quick := flag.Bool("quick", false, "reduced-fidelity sweep (faster)")
	jobs := flag.Int("j", 0, "worker goroutines (0 = GOMAXPROCS, 1 = serial); output is identical for every value")
	out := flag.String("o", "", "output file (default stdout)")
	obsFlags := cliutil.RegisterObs()
	flag.Parse()
	if err := cliutil.CheckJobs("dataset", *jobs); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// Check every argument before the output file is created, so a bad one
	// leaves an existing file as it was.
	queue, ok := map[string]int{"v100": 0, "mi100": 1}[*device]
	if !ok {
		fail(fmt.Errorf("unknown device %q (want v100 or mi100)", *device))
	}
	var build func(experiments.Config, *synergy.Queue) (*core.Dataset, []core.FeaturedWorkload, error)
	switch *app {
	case "cronos":
		build = experiments.Config.BuildCronosDataset
	case "ligen":
		build = experiments.Config.BuildLiGenDataset
	default:
		fail(fmt.Errorf("unknown app %q (want cronos or ligen)", *app))
	}

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	cfg.Jobs = *jobs
	cfg.Obs = obsFlags.Observer()
	p, err := cfg.Platform()
	if err != nil {
		fail(err)
	}

	w := os.Stdout
	if *out != "" {
		if w, err = os.Create(*out); err != nil {
			fail(err)
		}
	}
	ds, _, err := build(cfg, p.Queues()[queue])
	if err != nil {
		fail(err)
	}
	if err := ds.WriteCSV(w); err != nil {
		fail(err)
	}
	if w != os.Stdout {
		if err := w.Close(); err != nil {
			fail(err)
		}
	}
	fmt.Fprintf(os.Stderr, "dataset: wrote %d %s samples (%d inputs) from %s\n",
		len(ds.Samples), *app, len(ds.Inputs()), ds.Device)
	if err := obsFlags.Write(cfg.Obs); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "dataset: %v\n", err)
	os.Exit(1)
}
