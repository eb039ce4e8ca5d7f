// Command features runs the general-purpose model's static analysis on a
// kernel listing (the "new input code" of §4.1): it parses the PTX-like
// listing, prints the Table 1 feature vector, and optionally trains a quick
// general-purpose model to predict the kernel's speedup / normalized-energy
// curve — the full prediction phase of Fan et al. from the command line.
//
// Usage:
//
//	features kernel.k              # print the static feature vector
//	features -predict kernel.k    # + general-purpose curve prediction
//	echo "fadd 10" | features -   # read the listing from stdin
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dsenergy/internal/experiments"
	"dsenergy/internal/kernels"
)

func main() {
	predict := flag.Bool("predict", false, "train a quick general-purpose model and predict the curve")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: features [-predict] <listing file | ->")
		os.Exit(2)
	}

	var src io.Reader = os.Stdin
	if name := flag.Arg(0); name != "-" {
		f, err := os.Open(name)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		src = f
	}
	mix, err := kernels.ParseListing(src)
	if err != nil {
		fail(err)
	}

	fmt.Println("static code features (Table 1):")
	feats := mix.StaticFeatures()
	for i, name := range kernels.FeatureNames {
		fmt.Printf("   %-14s %.4f\n", name, feats[i])
	}
	fmt.Printf("compute cycles/item: %.1f, flops/item: %.1f, raw bytes/item: %.1f\n",
		mix.ComputeCycles(), mix.Flops(), mix.GlobalBytes())

	if !*predict {
		return
	}
	cfg := experiments.QuickConfig()
	p, err := cfg.Platform()
	if err != nil {
		fail(err)
	}
	q := p.Queues()[0]
	gp, err := cfg.TrainGP(q)
	if err != nil {
		fail(err)
	}
	sweep := q.Spec().FreqsAbove(cfg.BandFrac)
	var freqs []int
	for i := 0; i < len(sweep); i += 12 {
		freqs = append(freqs, sweep[i])
	}
	freqs = append(freqs, q.Spec().FMaxMHz())
	fmt.Printf("\ngeneral-purpose prediction on %s (baseline %d MHz):\n",
		q.Spec().Name, gp.BaselineFreqMHz)
	fmt.Printf("%10s %10s %12s\n", "freq(MHz)", "speedup", "norm energy")
	for _, c := range gp.PredictCurves(feats, freqs) {
		fmt.Printf("%10d %10.4f %12.4f\n", c.FreqMHz, c.Speedup, c.NormEnergy)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "features: %v\n", err)
	os.Exit(1)
}
