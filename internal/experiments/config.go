// Package experiments regenerates every table and figure of the paper's
// evaluation: the multi-objective characterizations (Figures 1-10), the
// feature tables (Tables 1-2), the model-accuracy comparison (Figure 13),
// the predicted-Pareto-set comparison (Figure 14), the regressor comparison
// and grid search of §5.2.1, and the ablation studies listed in DESIGN.md.
//
// Each generator returns a typed result that the renderers print as the
// rows/series the paper plots; ResultFiles pairs them into the result files
// cmd/reproduce writes. Everything is deterministic in the config seed.
package experiments

import (
	"dsenergy/internal/gpusim"
	"dsenergy/internal/ligen"
	"dsenergy/internal/obs"
	"dsenergy/internal/synergy"
)

// Config controls experiment fidelity. DefaultConfig reproduces the paper's
// protocol; QuickConfig trades sweep density and forest size for runtime and
// is what the unit tests and testing.B benchmarks use.
type Config struct {
	// Seed drives every stochastic component.
	Seed uint64
	// FreqStride subsamples the frequency band (1 = every frequency, as in
	// the paper's V100 sweep).
	FreqStride int
	// BandFrac restricts sweeps to frequencies >= BandFrac · f_max — the
	// "part of the frequency configurations" of §4.2.2; clocks below the
	// memory-latency floor are never Pareto-relevant.
	BandFrac float64
	// Reps is the repetitions per measurement (the paper uses 5).
	Reps int
	// CronosSteps is the simulated timestep count per Cronos run.
	CronosSteps int
	// Trees is the random-forest size (scikit-learn default: 100).
	Trees int
	// LiGenInputs is the dataset input grid for the LiGen models.
	LiGenInputs []ligen.Input
	// ScheduleJobs is the scheduling campaign's stream length (0 selects 96).
	ScheduleJobs int
	// ServeRequests is the serving campaign's per-shard request budget
	// (0 selects 500000; four shards make the default a two-million-request
	// load).
	ServeRequests int
	// Jobs bounds the worker goroutines of the generators' sweeps, dataset
	// builds, folds and campaigns (0 = GOMAXPROCS). Forest training does not
	// see it: each forest grows its trees on GOMAXPROCS goroutines, so 1 is
	// not a serial run. Results are byte-identical for every value: all
	// parallelism goes through the deterministic engine in internal/parallel,
	// with per-task randomness pre-split before any worker starts.
	Jobs int
	// Obs is an optional observability sink (see internal/obs): every
	// platform, cluster and model the generators build is attached to it.
	// Nil disables instrumentation; attaching an observer never changes a
	// generator's result, and the metric/trace exports are byte-identical
	// for every Jobs value.
	Obs *obs.Observer
}

// DefaultConfig is the paper-fidelity configuration.
func DefaultConfig() Config {
	return Config{
		Seed:        2023,
		FreqStride:  1,
		BandFrac:    0.40,
		Reps:        5,
		CronosSteps: 20,
		Trees:       100,
		LiGenInputs: PaperLiGenInputs(),
	}
}

// QuickConfig is the reduced-fidelity configuration for tests and benches.
func QuickConfig() Config {
	return Config{
		Seed:        2023,
		FreqStride:  8,
		BandFrac:    0.40,
		Reps:        2,
		CronosSteps: 8,
		Trees:       25,
		LiGenInputs: QuickLiGenInputs(),
	}
}

// PaperGrids is the Cronos input ladder of §5.1.
func PaperGrids() [][3]int {
	return [][3]int{{10, 4, 4}, {20, 8, 8}, {40, 16, 16}, {80, 32, 32}, {160, 64, 64}}
}

// PaperLiGenInputs is the full experiment grid of §5.1:
// (l, a, f) ∈ {2,16,1024,4096,10000} × {31,63,71,89} × {4,8,16,20}.
// 256 ligands is added to the ladder because Figures 10 and 13 evaluate it
// even though §5.1's tuple omits it (an inconsistency in the paper).
func PaperLiGenInputs() []ligen.Input {
	var out []ligen.Input
	for _, l := range []int{2, 16, 256, 1024, 4096, 10000} {
		for _, a := range []int{31, 63, 71, 89} {
			for _, f := range []int{4, 8, 16, 20} {
				out = append(out, ligen.Input{Ligands: l, Atoms: a, Fragments: f})
			}
		}
	}
	return out
}

// QuickLiGenInputs is a 24-input subset spanning the same ranges.
func QuickLiGenInputs() []ligen.Input {
	var out []ligen.Input
	for _, l := range []int{2, 1024, 10000} {
		for _, a := range []int{31, 89} {
			for _, f := range []int{4, 8, 16, 20} {
				out = append(out, ligen.Input{Ligands: l, Atoms: a, Fragments: f})
			}
		}
	}
	return out
}

// thinInputs caps a LiGen input grid at 24 inputs, every (len/24)-th one:
// the deterministic subset of the leave-one-input-out studies, whose cost
// grows with the input count because each held-out input retrains a model.
func thinInputs(in []ligen.Input) []ligen.Input {
	if len(in) <= 24 {
		return in
	}
	out := make([]ligen.Input, 0, 24)
	step := len(in) / 24
	for i := 0; i < len(in) && len(out) < 24; i += step {
		out = append(out, in[i])
	}
	return out
}

// Fig13LiGenDisplay is the 12-configuration subset Figure 13c/d displays
// (atoms x fragments x ligands).
func Fig13LiGenDisplay() []ligen.Input {
	var out []ligen.Input
	for _, a := range []int{31, 89} {
		for _, f := range []int{4, 20} {
			for _, l := range []int{256, 4096, 10000} {
				out = append(out, ligen.Input{Ligands: l, Atoms: a, Fragments: f})
			}
		}
	}
	return out
}

// Platform builds the simulated testbed (one V100, one MI100) seeded from
// the config, attached to the config's observer.
func (c Config) Platform() (*synergy.Platform, error) {
	p, err := synergy.NewPlatform(c.Seed, gpusim.V100Spec(), gpusim.MI100Spec())
	if err != nil {
		return nil, err
	}
	p.SetObserver(c.Obs)
	return p, nil
}

// sweepFreqs returns the frequency sweep for a device under this config,
// always including the baseline frequency.
func (c Config) sweepFreqs(spec gpusim.Spec) []int {
	band := spec.FreqsAbove(c.BandFrac)
	stride := c.FreqStride
	if stride < 1 {
		stride = 1
	}
	var out []int
	for i := 0; i < len(band); i += stride {
		out = append(out, band[i])
	}
	if out[len(out)-1] != band[len(band)-1] {
		out = append(out, band[len(band)-1])
	}
	base := spec.BaselineFreqMHz()
	for _, f := range out {
		if f == base {
			return out
		}
	}
	// Insert the baseline in sorted position.
	for i, f := range out {
		if f > base {
			return append(out[:i:i], append([]int{base}, out[i:]...)...)
		}
	}
	return append(out, base)
}
