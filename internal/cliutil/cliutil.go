// Package cliutil holds the flag plumbing the experiment CLIs share: the
// observability output flags (-metrics, -trace, -profile) and validation of
// the worker-count flag. Keeping it in one place is what keeps the four
// commands' flags and error conventions identical.
package cliutil

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dsenergy/internal/obs"
)

// ObsFlags holds the observability output paths registered by RegisterObs.
type ObsFlags struct {
	MetricsPath string
	TracePath   string
	ProfilePath string
}

// RegisterObs registers -metrics/-trace/-profile on the default flag set.
// Call before flag.Parse.
func RegisterObs() *ObsFlags {
	f := &ObsFlags{}
	flag.StringVar(&f.MetricsPath, "metrics", "",
		"write the deterministic metric export (JSON) to this file; byte-identical across runs and -j values")
	flag.StringVar(&f.TracePath, "trace", "",
		"write the simulated-time span trace (text) to this file; byte-identical across runs and -j values")
	flag.StringVar(&f.ProfilePath, "profile", "",
		"write wall-clock phase timers and unstable metrics (text) to this file; not deterministic by design")
	return f
}

// Observer returns a fresh observer when any output was requested, and nil
// otherwise — nil keeps the whole observability layer on the no-op path, so
// an unobserved run is not merely "observed into a discarded sink".
func (f *ObsFlags) Observer() *obs.Observer {
	if f.MetricsPath == "" && f.TracePath == "" && f.ProfilePath == "" {
		return nil
	}
	return obs.NewObserver()
}

// Write dumps the requested exports from o. A nil observer writes nothing
// (no flags were set). Call once, after the command's work succeeded.
func (f *ObsFlags) Write(o *obs.Observer) error {
	if o == nil {
		return nil
	}
	outputs := []struct {
		path string
		gen  func(io.Writer) error
	}{
		{f.MetricsPath, o.WriteMetricsJSON},
		{f.TracePath, o.WriteTraceText},
		{f.ProfilePath, o.WriteProfileText},
	}
	for _, out := range outputs {
		if out.path == "" {
			continue
		}
		file, err := os.Create(out.path)
		if err != nil {
			return err
		}
		if err := out.gen(file); err != nil {
			file.Close()
			return err
		}
		if err := file.Close(); err != nil {
			return err
		}
	}
	return nil
}

// CheckJobs rejects a negative -j with a usage error. It returns the error
// instead of exiting so long-running callers (the advisor service) and tests
// can handle it; CLI mains translate it to exit status 2 themselves (the
// same convention flag.Parse uses for malformed flags). Zero and positive
// values are both valid (0 = GOMAXPROCS).
func CheckJobs(prog string, jobs int) error {
	if jobs < 0 {
		return fmt.Errorf("%s: invalid -j %d: worker count must be >= 0 (0 = GOMAXPROCS)", prog, jobs)
	}
	return nil
}
