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
	var q *synergy.Queue
	switch *device {
	case "v100":
		q = p.Queues()[0]
	case "mi100":
		q = p.Queues()[1]
	default:
		fail(fmt.Errorf("unknown device %q (want v100 or mi100)", *device))
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		w = f
	}

	switch *app {
	case "cronos":
		ds, _, err := cfg.BuildCronosDataset(q)
		if err != nil {
			fail(err)
		}
		if err := ds.WriteCSV(w); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "dataset: wrote %d cronos samples (%d inputs) from %s\n",
			len(ds.Samples), len(ds.Inputs()), ds.Device)
	case "ligen":
		ds, _, err := cfg.BuildLiGenDataset(q)
		if err != nil {
			fail(err)
		}
		if err := ds.WriteCSV(w); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "dataset: wrote %d ligen samples (%d inputs) from %s\n",
			len(ds.Samples), len(ds.Inputs()), ds.Device)
	default:
		fail(fmt.Errorf("unknown app %q (want cronos or ligen)", *app))
	}
	if err := obsFlags.Write(cfg.Obs); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "dataset: %v\n", err)
	os.Exit(1)
}
