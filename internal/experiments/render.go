package experiments

import (
	"fmt"
	"io"
	"sort"

	"dsenergy/internal/kernels"
	"dsenergy/internal/pareto"
)

// RenderFigure prints a characterization figure as labelled series tables,
// one row per frequency configuration — the data behind the paper's scatter
// plots, with Pareto-front members marked.
func RenderFigure(w io.Writer, f Figure) {
	fmt.Fprintf(w, "== %s: %s ==\n", f.ID, f.Title)
	for _, n := range f.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	for _, s := range f.Series {
		fmt.Fprintf(w, "-- %s [%s] --\n", s.Label, s.Device)
		fmt.Fprintf(w, "%10s %12s %12s %10s %10s %7s\n",
			"freq(MHz)", "time(s)", "energy(J)", "speedup", "normE", "pareto")
		for _, p := range s.Points {
			mark := ""
			if p.OnPareto {
				mark = "*"
			}
			fmt.Fprintf(w, "%10d %12.6f %12.3f %10.4f %10.4f %7s\n",
				p.FreqMHz, p.TimeS, p.EnergyJ, p.Speedup, p.NormEnergy, mark)
		}
		fmt.Fprintf(w, "   pareto-optimal frequencies: %v\n", s.ParetoFreqs)
	}
}

// RenderFig13 prints the accuracy comparison as the four bar groups of
// Figure 13 plus the aggregate GP/DS error ratios.
func RenderFig13(w io.Writer, r Fig13Result) {
	panel := func(title string, bars []AccuracyBar, energy bool) {
		fmt.Fprintf(w, "-- %s --\n", title)
		fmt.Fprintf(w, "%-16s %16s %16s %8s\n", "input", "general-purpose", "domain-specific", "ratio")
		for _, b := range bars {
			dsv, gpv := b.DSSpeedup, b.GPSpeedup
			if energy {
				dsv, gpv = b.DSNormEnergy, b.GPNormEnergy
			}
			ratio := 0.0
			if dsv > 0 {
				ratio = gpv / dsv
			}
			fmt.Fprintf(w, "%-16s %16.4f %16.4f %7.1fx\n", b.Label, gpv, dsv, ratio)
		}
	}
	fmt.Fprintln(w, "== fig13: model accuracy comparison (MAPE, leave-one-input-out) ==")
	panel("a) Cronos speedup prediction error", r.Cronos, false)
	panel("b) Cronos normalized energy prediction error", r.Cronos, true)
	panel("c) LiGen speedup prediction error", r.LiGen, false)
	panel("d) LiGen normalized energy prediction error", r.LiGen, true)
	sp, en := r.MeanRatios()
	fmt.Fprintf(w, "aggregate GP/DS error ratio: speedup %.1fx, normalized energy %.1fx\n", sp, en)
}

// RenderFig14 prints the predicted-Pareto-set comparison panels.
func RenderFig14(w io.Writer, panels []Fig14Panel) {
	fmt.Fprintln(w, "== fig14: predicted Pareto sets vs true Pareto set ==")
	for _, p := range panels {
		fmt.Fprintf(w, "-- %s (%s) --\n", p.App, p.InputLabel)
		fmt.Fprintf(w, "true Pareto front (%d points):\n", len(p.TrueFront))
		renderFront(w, p.TrueFront)
		for _, m := range []struct {
			name string
			set  PredictedSet
		}{{"domain-specific", p.DS}, {"general-purpose", p.GP}} {
			fmt.Fprintf(w, "%s prediction: %d frequencies, %d exact matches, mean front distance %.4f\n",
				m.name, len(m.set.Freqs), m.set.ExactMatches, m.set.FrontDistance)
			renderFront(w, m.set.Achieved)
		}
	}
}

func renderFront(w io.Writer, pts []pareto.Point) {
	for _, p := range pts {
		fmt.Fprintf(w, "    %5d MHz  speedup %.4f  normE %.4f\n", p.FreqMHz, p.Speedup, p.NormEnergy)
	}
}

// RenderAlgorithmComparison prints the §5.2.1 regressor selection table.
func RenderAlgorithmComparison(w io.Writer, cmps []AlgorithmComparison) {
	fmt.Fprintln(w, "== regressor comparison (mean leave-one-input-out MAPE) ==")
	for _, c := range cmps {
		fmt.Fprintf(w, "-- %s --\n", c.App)
		fmt.Fprintf(w, "%-10s %14s %14s\n", "algorithm", "speedup MAPE", "energy MAPE")
		for _, s := range c.Scores {
			fmt.Fprintf(w, "%-10s %14.4f %14.4f\n", s.Spec.Algorithm, s.MeanSpeedupMAPE, s.MeanNormEnergyMAPE)
		}
	}
}

// RenderGridSearch prints the random-forest hyper-parameter surfaces.
func RenderGridSearch(w io.Writer, results []GridSearchResult) {
	fmt.Fprintln(w, "== random-forest grid search (k-fold MAPE; 0 = scikit-learn default) ==")
	for _, r := range results {
		fmt.Fprintf(w, "-- %s / %s --\n", r.App, r.Target)
		for _, p := range r.Points {
			fmt.Fprintf(w, "   max_depth=%-4g n_estimators=%-4g max_features=%-4g  MAPE %.4f\n",
				p.Params["max_depth"], p.Params["n_estimators"], p.Params["max_features"], p.MAPE)
		}
	}
}

// RenderPerKernel prints the §7 per-kernel frequency plan and its measured
// outcome.
func RenderPerKernel(w io.Writer, r PerKernelResult) {
	fmt.Fprintln(w, "== per-kernel frequency scaling (§7 future work), Cronos 160x64x64 ==")
	names := make([]string, 0, len(r.Plan))
	for k := range r.Plan {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "   %-16s -> %d MHz\n", k, r.Plan[k])
	}
	fmt.Fprintf(w, "   measured: speedup %.3f, energy saving %.1f%%\n",
		r.Outcome.Speedup(), r.Outcome.EnergySaving()*100)
}

// RenderScaling prints the strong-scaling study, one row per cluster size.
func RenderScaling(w io.Writer, ligenRows, cronosRows []ScalingRow) {
	fmt.Fprintln(w, "== strong scaling (V100 cluster) ==")
	fmt.Fprintf(w, "%-8s %12s %12s %12s %12s\n", "devices", "ligen t(s)", "ligen eff", "cronos t(s)", "cronos eff")
	for i, l := range ligenRows {
		c := cronosRows[i]
		fmt.Fprintf(w, "%-8d %12.4f %12.2f %12.4f %12.2f\n", l.Devices, l.TimeS, l.Efficiency, c.TimeS, c.Efficiency)
	}
}

// RenderTable1 prints the general-purpose model's static features (Table 1).
func RenderTable1(w io.Writer) {
	fmt.Fprintln(w, "== table1: general-purpose model features ==")
	desc := map[string]string{
		"f_int_add":    "integer additions and subtractions",
		"f_int_mul":    "integer multiplications",
		"f_int_div":    "integer divisions",
		"f_int_bw":     "integer bitwise operations",
		"f_float_add":  "floating point additions and subtractions",
		"f_float_mul":  "floating point multiplications",
		"f_float_div":  "floating point divisions",
		"f_sf":         "special functions",
		"f_gl_access":  "global memory accesses",
		"f_loc_access": "local memory accesses",
	}
	for _, name := range kernels.FeatureNames {
		fmt.Fprintf(w, "%-14s %s\n", name, desc[name])
	}
}

// RenderTable2 prints the domain-specific feature sets (Table 2).
func RenderTable2(w io.Writer) {
	fmt.Fprintln(w, "== table2: domain-specific model features ==")
	fmt.Fprintf(w, "%-10s %s\n", "Cronos", "f_grid_x, f_grid_y, f_grid_z")
	fmt.Fprintf(w, "%-10s %s\n", "LiGen", "f_ligands, f_fragments, f_atoms")
}
