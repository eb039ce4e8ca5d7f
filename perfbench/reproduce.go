package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"dsenergy/internal/experiments"
)

// referenceSeed is the seed results/quick was generated with; only its
// output can be compared byte for byte.
const referenceSeed = 2023

// referenceDir holds the checked-in reproduce -quick output.
const referenceDir = "results/quick"

// resultFile is one of the 22 files cmd/reproduce -quick writes, in the
// order it writes them. group is the per-layer span it is timed under.
type resultFile struct {
	name, group string
	gen         func(c experiments.Config, w io.Writer) (genOut, error)
}

// genOut is what a generator reports besides its text.
type genOut struct {
	failedChecks int
	// energyJ and points are the simulated energy a characterisation
	// figure measured and its number of measured points.
	energyJ float64
	points  int
}

func figure(fig func(experiments.Config) (experiments.Figure, error)) func(experiments.Config, io.Writer) (genOut, error) {
	return func(c experiments.Config, w io.Writer) (genOut, error) {
		f, err := fig(c)
		if err != nil {
			return genOut{}, err
		}
		experiments.RenderFigure(w, f)
		var out genOut
		for _, s := range f.Series {
			for _, p := range s.Points {
				out.energyJ += p.EnergyJ
				out.points++
			}
		}
		return out, nil
	}
}

// resultFiles mirrors cmd/reproduce: same generators, same rendering.
var resultFiles = []resultFile{
	{"tables.txt", "experiments.other_s", func(_ experiments.Config, w io.Writer) (genOut, error) {
		experiments.RenderTable1(w)
		fmt.Fprintln(w)
		experiments.RenderTable2(w)
		return genOut{}, nil
	}},
	{"fig01.txt", "experiments.charfigs_s", figure(experiments.Config.Fig1)},
	{"fig02.txt", "experiments.charfigs_s", figure(experiments.Config.Fig2)},
	{"fig03.txt", "experiments.charfigs_s", figure(experiments.Config.Fig3)},
	{"fig04.txt", "experiments.charfigs_s", figure(experiments.Config.Fig4)},
	{"fig05.txt", "experiments.charfigs_s", figure(experiments.Config.Fig5)},
	{"fig06.txt", "experiments.charfigs_s", figure(experiments.Config.Fig6)},
	{"fig07.txt", "experiments.charfigs_s", figure(experiments.Config.Fig7)},
	{"fig08.txt", "experiments.charfigs_s", figure(experiments.Config.Fig8)},
	{"fig09.txt", "experiments.charfigs_s", figure(experiments.Config.Fig9)},
	{"fig10.txt", "experiments.charfigs_s", figure(experiments.Config.Fig10)},
	{"fig13.txt", "experiments.fig13_s", func(c experiments.Config, w io.Writer) (genOut, error) {
		r, err := c.Fig13()
		if err != nil {
			return genOut{}, err
		}
		experiments.RenderFig13(w, r)
		return genOut{}, nil
	}},
	{"fig14.txt", "experiments.fig14_s", func(c experiments.Config, w io.Writer) (genOut, error) {
		panels, err := c.Fig14()
		if err != nil {
			return genOut{}, err
		}
		experiments.RenderFig14(w, panels)
		return genOut{}, nil
	}},
	{"regressors.txt", "experiments.regressors_s", func(c experiments.Config, w io.Writer) (genOut, error) {
		cmp, err := c.CompareRegressors()
		if err != nil {
			return genOut{}, err
		}
		experiments.RenderAlgorithmComparison(w, cmp)
		return genOut{}, nil
	}},
	{"ablations.txt", "experiments.ablations_s", func(c experiments.Config, w io.Writer) (genOut, error) {
		return genOut{}, c.RenderAblations(w)
	}},
	{"gridsearch.txt", "experiments.other_s", func(c experiments.Config, w io.Writer) (genOut, error) {
		gs, err := c.GridSearchRF()
		if err != nil {
			return genOut{}, err
		}
		experiments.RenderGridSearch(w, gs)
		return genOut{}, nil
	}},
	{"tuners.txt", "experiments.other_s", func(c experiments.Config, w io.Writer) (genOut, error) {
		r, err := c.CompareTuners()
		if err != nil {
			return genOut{}, err
		}
		experiments.RenderTuningComparison(w, r)
		return genOut{}, nil
	}},
	{"perkernel.txt", "experiments.other_s", func(c experiments.Config, w io.Writer) (genOut, error) {
		r, err := c.FutureWorkPerKernel()
		if err != nil {
			return genOut{}, err
		}
		fmt.Fprintln(w, "== per-kernel frequency scaling (§7 future work), Cronos 160x64x64 ==")
		kernels := make([]string, 0, len(r.Plan))
		for k := range r.Plan {
			kernels = append(kernels, k)
		}
		sort.Strings(kernels)
		for _, k := range kernels {
			fmt.Fprintf(w, "   %-16s -> %d MHz\n", k, r.Plan[k])
		}
		fmt.Fprintf(w, "   measured: speedup %.3f, energy saving %.1f%%\n",
			r.Outcome.Speedup(), r.Outcome.EnergySaving()*100)
		return genOut{}, nil
	}},
	{"scaling.txt", "experiments.other_s", func(c experiments.Config, w io.Writer) (genOut, error) {
		lr, cr, err := c.StrongScaling([]int{1, 2, 4, 8, 16})
		if err != nil {
			return genOut{}, err
		}
		fmt.Fprintln(w, "== strong scaling (V100 cluster) ==")
		fmt.Fprintf(w, "%-8s %12s %12s %12s %12s\n", "devices", "ligen t(s)", "ligen eff", "cronos t(s)", "cronos eff")
		for i := range lr {
			fmt.Fprintf(w, "%-8d %12.4f %12.2f %12.4f %12.2f\n",
				lr[i].Devices, lr[i].TimeS, lr[i].Efficiency, cr[i].TimeS, cr[i].Efficiency)
		}
		return genOut{}, nil
	}},
	{"resilience.txt", "experiments.other_s", func(c experiments.Config, w io.Writer) (genOut, error) {
		return genOut{}, c.RenderResilience(w)
	}},
	{"schedule.txt", "experiments.other_s", func(c experiments.Config, w io.Writer) (genOut, error) {
		n, err := c.RenderSchedule(w)
		return genOut{failedChecks: n}, err
	}},
	{"shapechecks.txt", "experiments.shapechecks_s", func(c experiments.Config, w io.Writer) (genOut, error) {
		checks, err := c.VerifyShapes()
		if err != nil {
			return genOut{}, err
		}
		return genOut{failedChecks: experiments.RenderShapeChecks(w, checks)}, nil
	}},
}

// reproduce is the reproduce_quick workload: the whole generator sequence
// of cmd/reproduce -quick per round, each file checked as it is produced.
type reproduce struct {
	cfg experiments.Config
	// ref holds the bytes every file must equal: results/quick at the
	// reference seed; at any other seed nothing in the first round and the
	// first round's files after it, since a seed's output must repeat.
	ref     map[string][]byte
	refName string
	repeats repeatCounter[string]
	buf     bytes.Buffer
}

// setupReproduce builds the configuration, which is all cmd/reproduce does
// before its first result file.
func setupReproduce(e env) (workload, error) {
	cfg := experiments.QuickConfig()
	cfg.Seed = e.seed
	cfg.Jobs = e.workers
	return &reproduce{cfg: cfg}, nil
}

// prepare reads the reference output once, at the reference seed: it is
// the check's input, not the program's, so it is not set-up time.
func (w *reproduce) prepare(*tracer) error {
	if w.cfg.Seed != referenceSeed || w.ref != nil {
		return nil
	}
	ref := make(map[string][]byte, len(resultFiles))
	for _, f := range resultFiles {
		b, err := os.ReadFile(filepath.Join(referenceDir, f.name))
		if err != nil {
			return fmt.Errorf("reference output: %w", err)
		}
		ref[f.name] = b
	}
	w.ref, w.refName = ref, referenceDir
	return nil
}

func (w *reproduce) round(tr *tracer) (roundOut, error) {
	cfg := w.cfg
	cfg.Obs = tr.observer()
	out := roundOut{ops: len(resultFiles)}
	points := 0
	var produced map[string][]byte // the first round's files off the reference seed
	if w.ref == nil {
		produced = make(map[string][]byte, len(resultFiles))
	}
	for _, f := range resultFiles {
		w.buf.Reset()
		var g genOut
		err := tr.call(f.group, func() error {
			var err error
			g, err = f.gen(cfg, &w.buf)
			return err
		})
		w.repeats.add(f.name)
		if produced != nil {
			produced[f.name] = bytes.Clone(w.buf.Bytes())
		}
		failed, problem := judgeFile(f.name, w.buf.Bytes(), w.ref, w.refName, g.failedChecks, err)
		if failed {
			out.failed++
		}
		if problem != "" {
			out.problems = append(out.problems, problem)
			continue
		}
		if g.failedChecks > 0 {
			fmt.Printf("%s: %d failed CHECK or shape lines at seed %d\n", f.name, g.failedChecks, cfg.Seed)
		}
		out.energyJ += g.energyJ
		points += g.points
		if g.points > 0 {
			out.answered++
		}
	}
	if points == 0 {
		return out, fmt.Errorf("the characterisation figures measured no points")
	}
	if produced != nil {
		w.ref, w.refName = produced, "the first round's output"
	}
	return out, nil
}

func (w *reproduce) repeatFrac() float64 { return w.repeats.frac() }

// judgeFile decides whether one generated result file is a failed op. A
// generator error or a difference from the file in ref (named refName; ref
// is nil in the first round off the reference seed) is also a wrong
// output, returned as a problem. A failed CHECK or shape line only fails
// the op: the paper's claim does not hold at that seed, but the program
// computed what it should.
func judgeFile(name string, got []byte, ref map[string][]byte, refName string, failedChecks int, err error) (failed bool, problem string) {
	switch {
	case err != nil:
		return true, fmt.Sprintf("%s: %v", name, err)
	case ref != nil && !bytes.Equal(got, ref[name]):
		return true, fmt.Sprintf("%s differs from %s", name, refName)
	}
	return failedChecks > 0, ""
}
