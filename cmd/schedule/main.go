// Command schedule runs the deadline-aware scheduling campaign: a seeded
// multi-tenant stream of LiGen screens and Cronos runs executed on a
// 4-device V100 cluster under three frequency policies (model-driven,
// max-frequency, static baseline), fault-free and under an aggressive fault
// storm (mid-campaign device loss, thermal-throttle windows, transient
// faults, clock rejections). The output ends with CHECK lines asserting the
// model-driven policy beats both baselines on total energy at an
// equal-or-lower SLO miss rate; any failed check exits 1.
//
// Usage:
//
//	schedule [-quick] [-jobs N] [-j N] [-metrics m.json] [-trace t.txt] [-profile p.txt]
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
	streamJobs := flag.Int("jobs", 0, "stream length (0 = campaign default 96; the fault-storm CHECK lines are calibrated to the default and may fail on much shorter streams)")
	jobs := flag.Int("j", 0, "worker goroutines (0 = GOMAXPROCS; forest training always runs on GOMAXPROCS); output is identical for every value")
	obsFlags := cliutil.RegisterObs()
	flag.Parse()
	if err := cliutil.CheckJobs("schedule", *jobs); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *streamJobs < 0 {
		fmt.Fprintln(os.Stderr, "schedule: -jobs must be >= 0")
		os.Exit(2)
	}

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	cfg.Jobs = *jobs
	cfg.ScheduleJobs = *streamJobs
	cfg.Obs = obsFlags.Observer()

	failed, err := cfg.RenderSchedule(os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "schedule: %v\n", err)
		os.Exit(1)
	}
	if err := obsFlags.Write(cfg.Obs); err != nil {
		fmt.Fprintf(os.Stderr, "schedule: %v\n", err)
		os.Exit(1)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "schedule: %d checks FAILED\n", failed)
		os.Exit(1)
	}
}
