package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dsenergy/internal/ligen"
	"dsenergy/internal/pareto"
	"dsenergy/internal/tuner"
)

// testConfig is even lighter than QuickConfig, for unit-test latency.
func testConfig() Config {
	c := QuickConfig()
	c.FreqStride = 12
	c.Trees = 15
	c.CronosSteps = 4
	c.LiGenInputs = []ligen.Input{
		{Ligands: 2, Atoms: 31, Fragments: 4},
		{Ligands: 256, Atoms: 31, Fragments: 4},
		{Ligands: 10000, Atoms: 31, Fragments: 4},
		{Ligands: 256, Atoms: 89, Fragments: 4},
		{Ligands: 256, Atoms: 31, Fragments: 20},
		{Ligands: 10000, Atoms: 89, Fragments: 20},
	}
	return c
}

func seriesByLabel(t *testing.T, f Figure, label string) Series {
	t.Helper()
	for _, s := range f.Series {
		if s.Label == label {
			return s
		}
	}
	t.Fatalf("figure %s has no series %q", f.ID, label)
	return Series{}
}

func baselinePoint(t *testing.T, s Series) CharPoint {
	t.Helper()
	for _, p := range s.Points {
		if p.Speedup == 1 && p.NormEnergy == 1 {
			return p
		}
	}
	// The baseline is the point with speedup exactly 1 by construction.
	for _, p := range s.Points {
		if p.Speedup == 1 {
			return p
		}
	}
	t.Fatal("series has no baseline point")
	return CharPoint{}
}

func TestFig1Structure(t *testing.T) {
	fig, err := testConfig().Fig1()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("fig1 wants LiGen+Cronos series, got %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Points) == 0 || len(s.ParetoFreqs) == 0 {
			t.Errorf("series %s empty", s.Label)
		}
		bp := baselinePoint(t, s)
		if bp.FreqMHz == 0 {
			t.Errorf("series %s lacks baseline", s.Label)
		}
	}
	// LiGen is compute-leaning: its top-frequency point beats baseline.
	ls := seriesByLabel(t, fig, "LiGen")
	top := ls.Points[len(ls.Points)-1]
	if top.Speedup <= 1.05 {
		t.Errorf("fig1 LiGen speedup at fmax %.3f, want > 1.05", top.Speedup)
	}
	// Cronos is memory-bound: no meaningful speedup from up-clocking.
	cs := seriesByLabel(t, fig, "Cronos")
	ctop := cs.Points[len(cs.Points)-1]
	if ctop.Speedup > 1.06 {
		t.Errorf("fig1 Cronos speedup at fmax %.3f, want ~1", ctop.Speedup)
	}
	if ctop.NormEnergy < 1.1 {
		t.Errorf("fig1 Cronos energy at fmax %.3f, want clearly above 1", ctop.NormEnergy)
	}
}

func TestFig2SmallVsLarge(t *testing.T) {
	fig, err := testConfig().Fig2()
	if err != nil {
		t.Fatal(err)
	}
	small, large := fig.Series[0], fig.Series[1]
	// Small input: minimum normalized energy near or above 1 (no savings
	// from down-clocking, Figure 2a).
	minE := func(s Series) float64 {
		m := s.Points[0].NormEnergy
		for _, p := range s.Points {
			if p.NormEnergy < m {
				m = p.NormEnergy
			}
		}
		return m
	}
	if m := minE(small); m < 0.97 {
		t.Errorf("fig2 small input min normalized energy %.3f, want >= 0.97", m)
	}
	// Large input: down-clocking saves energy (Figure 2b).
	if m := minE(large); m > 0.97 {
		t.Errorf("fig2 large input min normalized energy %.3f, want < 0.97", m)
	}
}

func TestFig4CronosSavingsGrowWithGrid(t *testing.T) {
	fig, err := testConfig().Fig4()
	if err != nil {
		t.Fatal(err)
	}
	minE := func(s Series) float64 {
		m := s.Points[0].NormEnergy
		for _, p := range s.Points {
			if p.NormEnergy < m {
				m = p.NormEnergy
			}
		}
		return m
	}
	small := minE(fig.Series[0])
	large := minE(fig.Series[1])
	if large >= small {
		t.Errorf("fig4: large grid should save more energy (small min %.3f, large min %.3f)", small, large)
	}
}

func TestFig5AMDAutoNearBest(t *testing.T) {
	fig, err := testConfig().Fig5()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fig.Series {
		if s.Device != "AMD MI100" {
			t.Fatalf("fig5 on %s, want MI100", s.Device)
		}
		var best float64
		for _, p := range s.Points {
			if p.Speedup > best {
				best = p.Speedup
			}
		}
		if best > 1.10 {
			t.Errorf("fig5 %s: a fixed clock beats AMD auto by %.1f%%, want <= 10%%", s.Label, (best-1)*100)
		}
	}
}

func TestFig6MonotoneInFragments(t *testing.T) {
	fig, err := testConfig().Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 8 {
		t.Fatalf("fig6 wants 2 atoms x 4 fragment series, got %d", len(fig.Series))
	}
	// Within the 89-atom panel, energy at the baseline grows with fragments.
	var prev float64
	for _, s := range fig.Series[4:] { // 89-atom series, frags 4,8,16,20
		bp := baselinePoint(t, s)
		if bp.EnergyJ <= prev {
			t.Errorf("fig6 series %s energy %.1f J not increasing in fragments", s.Label, bp.EnergyJ)
		}
		prev = bp.EnergyJ
	}
}

func TestFig8MonotoneInAtoms(t *testing.T) {
	fig, err := testConfig().Fig8()
	if err != nil {
		t.Fatal(err)
	}
	var prev float64
	for _, s := range fig.Series[:4] { // 4-fragment panel, atoms 31..89
		bp := baselinePoint(t, s)
		if bp.TimeS <= prev {
			t.Errorf("fig8 series %s time %.3f s not increasing in atoms", s.Label, bp.TimeS)
		}
		prev = bp.TimeS
	}
}

func TestFig10FourPanels(t *testing.T) {
	fig, err := testConfig().Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 {
		t.Fatalf("fig10 wants 4 panels, got %d", len(fig.Series))
	}
	devices := map[string]int{}
	for _, s := range fig.Series {
		devices[s.Device]++
	}
	if devices["NVIDIA V100"] != 2 || devices["AMD MI100"] != 2 {
		t.Errorf("fig10 device split %v", devices)
	}
}

func TestFig13DomainSpecificWins(t *testing.T) {
	r, err := testConfig().Fig13()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cronos) != 5 {
		t.Fatalf("fig13 wants 5 Cronos bars, got %d", len(r.Cronos))
	}
	if len(r.LiGen) == 0 {
		t.Fatal("fig13 has no LiGen bars")
	}
	for _, b := range r.Cronos {
		if b.DSSpeedup >= b.GPSpeedup {
			t.Errorf("Cronos %s: DS speedup MAPE %.4f not below GP %.4f", b.Label, b.DSSpeedup, b.GPSpeedup)
		}
	}
	sp, en := r.MeanRatios()
	t.Logf("fig13 mean GP/DS ratios: speedup %.1fx, energy %.1fx", sp, en)
	if sp < 3 {
		t.Errorf("speedup error ratio %.1fx, want >= 3x at test scale", sp)
	}
	if en < 1.5 {
		t.Errorf("energy error ratio %.1fx, want >= 1.5x at test scale", en)
	}
}

func TestFig14Panels(t *testing.T) {
	panels, err := testConfig().Fig14()
	if err != nil {
		t.Fatal(err)
	}
	if len(panels) != 2 {
		t.Fatalf("fig14 wants LiGen+Cronos panels, got %d", len(panels))
	}
	for _, p := range panels {
		if len(p.TrueFront) == 0 {
			t.Errorf("%s: empty true front", p.App)
		}
		if len(p.DS.Freqs) == 0 || len(p.GP.Freqs) == 0 {
			t.Errorf("%s: empty predicted set", p.App)
		}
		if p.DS.FrontDistance < 0 || p.GP.FrontDistance < 0 {
			t.Errorf("%s: negative front distance", p.App)
		}
		// The domain-specific prediction should track the true front at
		// least as closely as the general-purpose one, with slack for the
		// coarse test sweep.
		if p.DS.FrontDistance > p.GP.FrontDistance*2+0.05 {
			t.Errorf("%s: DS front distance %.4f much worse than GP %.4f",
				p.App, p.DS.FrontDistance, p.GP.FrontDistance)
		}
	}
}

func TestCompareRegressorsForestWins(t *testing.T) {
	cfg := testConfig()
	cmps, err := cfg.CompareRegressors()
	if err != nil {
		t.Fatal(err)
	}
	if len(cmps) != 2 {
		t.Fatalf("want 2 apps, got %d", len(cmps))
	}
	for _, c := range cmps {
		var forest, bestOther float64 = -1, 1e9
		for _, s := range c.Scores {
			m := (s.MeanSpeedupMAPE + s.MeanNormEnergyMAPE) / 2
			if s.Spec.Algorithm == "forest" {
				forest = m
			} else if m < bestOther {
				bestOther = m
			}
		}
		t.Logf("%s: forest %.4f, best other %.4f", c.App, forest, bestOther)
		if forest < 0 {
			t.Fatalf("%s: forest missing from comparison", c.App)
		}
		// The paper selects the forest; it must be at least competitive.
		if forest > bestOther*1.5 {
			t.Errorf("%s: forest %.4f much worse than best alternative %.4f", c.App, forest, bestOther)
		}
	}
}

func TestAblationRoofline(t *testing.T) {
	r, err := testConfig().AblationRoofline()
	if err != nil {
		t.Fatal(err)
	}
	// Compute-only model shows speedup from up-clocking where the roofline
	// model shows none, and misses the down-clock saving magnitude.
	if r.ComputeOnlySpeedup <= r.RooflineSpeedup {
		t.Errorf("compute-only speedup %.3f should exceed roofline %.3f",
			r.ComputeOnlySpeedup, r.RooflineSpeedup)
	}
	if r.RooflineSaving <= 0.05 {
		t.Errorf("roofline down-clock saving %.3f, want > 5%%", r.RooflineSaving)
	}
}

func TestAblationFeatures(t *testing.T) {
	r, err := testConfig().AblationFeatures()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("with inputs %.4f, static-only %.4f", r.WithInputsMeanMAPE, r.StaticOnlyMeanMAPE)
	if r.StaticOnlyMeanMAPE <= r.WithInputsMeanMAPE {
		t.Errorf("removing input features should hurt: with %.4f, without %.4f",
			r.WithInputsMeanMAPE, r.StaticOnlyMeanMAPE)
	}
}

func TestAblationBatching(t *testing.T) {
	r, err := testConfig().AblationBatching()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.BatchSizes) != len(r.Savings) || len(r.BatchSizes) == 0 {
		t.Fatalf("malformed batching result %+v", r)
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	cfg := testConfig()
	var buf bytes.Buffer
	fig, err := cfg.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	RenderFigure(&buf, fig)
	if !strings.Contains(buf.String(), "pareto-optimal frequencies") {
		t.Error("figure renderer missing Pareto line")
	}
	buf.Reset()
	RenderTable1(&buf)
	if !strings.Contains(buf.String(), "f_gl_access") {
		t.Error("table1 renderer missing feature")
	}
	buf.Reset()
	RenderTable2(&buf)
	if !strings.Contains(buf.String(), "f_ligands") {
		t.Error("table2 renderer missing feature")
	}
	buf.Reset()
	RenderPerKernel(&buf, PerKernelResult{
		Plan: map[string]int{"update": 1380, "flux": 1005},
		Outcome: tuner.Outcome{BaselineTimeS: 1, BaselineEnergyJ: 100,
			TunedTimeS: 1.02, TunedEnergyJ: 88},
	})
	out := buf.String()
	if flux, update := strings.Index(out, "flux"), strings.Index(out, "update"); flux < 0 || flux > update {
		t.Errorf("per-kernel renderer lists kernels out of name order:\n%s", out)
	}
	if !strings.Contains(out, "speedup 0.980, energy saving 12.0%") {
		t.Errorf("per-kernel renderer missing outcome:\n%s", out)
	}
	buf.Reset()
	RenderScaling(&buf,
		[]ScalingRow{{Devices: 1, TimeS: 2, Efficiency: 1}, {Devices: 2, TimeS: 1.1, Efficiency: 0.91}},
		[]ScalingRow{{Devices: 1, TimeS: 4, Efficiency: 1}, {Devices: 2, TimeS: 2.5, Efficiency: 0.8}})
	if lines := strings.Split(strings.TrimSpace(buf.String()), "\n"); len(lines) != 4 ||
		!strings.HasPrefix(lines[3], "2 ") || !strings.HasSuffix(lines[3], "0.80") {
		t.Errorf("scaling renderer rows:\n%s", buf.String())
	}
}

// TestResultFilesMatchSnapshot pins the result-file table to the checked-in
// reproduce -quick snapshot: one row per file of results/quick. A
// directory's names are unique, so a name listed twice fails too.
func TestResultFilesMatchSnapshot(t *testing.T) {
	snapshot, err := os.ReadDir(filepath.Join("..", "..", "results", "quick"))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, 0, len(snapshot))
	for _, e := range snapshot {
		want = append(want, e.Name())
	}
	got := make([]string, 0, len(ResultFiles))
	for _, rf := range ResultFiles {
		got = append(got, rf.Name)
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("result files %v, want the %d files of results/quick %v", got, len(want), want)
	}
}

func TestSweepFreqsIncludesBaselineAndTop(t *testing.T) {
	cfg := testConfig()
	p, err := cfg.Platform()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range p.Queues() {
		fs := cfg.sweepFreqs(q.Spec())
		hasBase, hasTop := false, false
		for _, f := range fs {
			if f == q.BaselineFreqMHz() {
				hasBase = true
			}
			if f == q.Spec().FMaxMHz() {
				hasTop = true
			}
		}
		if !hasBase || !hasTop {
			t.Errorf("%s sweep missing baseline or top: %v", q.Spec().Name, fs)
		}
		for i := 1; i < len(fs); i++ {
			if fs[i] <= fs[i-1] {
				t.Errorf("%s sweep not ascending at %d", q.Spec().Name, i)
			}
		}
	}
}

func TestPaperInputLists(t *testing.T) {
	if got := len(PaperGrids()); got != 5 {
		t.Errorf("paper grids %d, want 5", got)
	}
	if got := len(PaperLiGenInputs()); got != 6*4*4 {
		t.Errorf("paper LiGen inputs %d, want 96", got)
	}
	if got := len(Fig13LiGenDisplay()); got != 12 {
		t.Errorf("fig13 display inputs %d, want 12", got)
	}
}

func TestAblationBaselinesOrdering(t *testing.T) {
	r, err := testConfig().AblationBaselines()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("DS %.4f, GP-regression %.4f, GP-clustered %.4f",
		r.DomainSpecificMAPE, r.GPRegressionMAPE, r.GPClusteredMAPE)
	if r.DomainSpecificMAPE >= r.GPRegressionMAPE {
		t.Errorf("domain-specific %.4f not below GP regression %.4f",
			r.DomainSpecificMAPE, r.GPRegressionMAPE)
	}
	if r.DomainSpecificMAPE >= r.GPClusteredMAPE {
		t.Errorf("domain-specific %.4f not below GP clustered %.4f",
			r.DomainSpecificMAPE, r.GPClusteredMAPE)
	}
}

func TestFutureWorkPerKernel(t *testing.T) {
	r, err := testConfig().FutureWorkPerKernel()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Plan) != 4 {
		t.Fatalf("plan covers %d kernels, want 4", len(r.Plan))
	}
	if saving := r.Outcome.EnergySaving(); saving < 0.05 {
		t.Errorf("per-kernel saving %.1f%%, want >= 5%%", saving*100)
	}
	if sp := r.Outcome.Speedup(); sp < 0.95 {
		t.Errorf("per-kernel slowdown %.1f%%, want <= 5%%", (1-sp)*100)
	}
}

func TestFig13AndFig14Renderers(t *testing.T) {
	r := Fig13Result{
		Cronos: []AccuracyBar{{Label: "10x4x4", DSSpeedup: 0.01, GPSpeedup: 0.1,
			DSNormEnergy: 0.01, GPNormEnergy: 0.04}},
		LiGen: []AccuracyBar{{Label: "31x4x256", DSSpeedup: 0.005, GPSpeedup: 0.2,
			DSNormEnergy: 0.003, GPNormEnergy: 0.15}},
	}
	var buf bytes.Buffer
	RenderFig13(&buf, r)
	out := buf.String()
	for _, want := range []string{"Cronos speedup", "LiGen normalized energy",
		"aggregate GP/DS error ratio", "10.0x"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig13 rendering missing %q", want)
		}
	}

	panels := []Fig14Panel{{
		App: "LiGen", InputLabel: "89x20x10000",
		TrueFront: []pareto.Point{{FreqMHz: 1597, Speedup: 1.2, NormEnergy: 1.35}},
		DS: PredictedSet{Freqs: []int{1597}, ExactMatches: 1, FrontDistance: 0.001,
			Achieved: []pareto.Point{{FreqMHz: 1597, Speedup: 1.2, NormEnergy: 1.35}}},
		GP: PredictedSet{Freqs: []int{1590}, ExactMatches: 0, FrontDistance: 0.02},
	}}
	buf.Reset()
	RenderFig14(&buf, panels)
	out = buf.String()
	for _, want := range []string{"LiGen (89x20x10000)", "1 exact matches", "0 exact matches"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig14 rendering missing %q", want)
		}
	}
}

func TestStrongScaling(t *testing.T) {
	lr, cr, err := testConfig().StrongScaling([]int{1, 2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(lr) != 4 || len(cr) != 4 {
		t.Fatalf("row counts %d/%d, want 4/4", len(lr), len(cr))
	}
	// Wall time decreases with devices for both apps.
	for i := 1; i < 4; i++ {
		if lr[i].TimeS >= lr[i-1].TimeS {
			t.Errorf("LiGen time not decreasing at %d devices", lr[i].Devices)
		}
	}
	// LiGen scales better than Cronos at 8 devices (halo overhead).
	if lr[3].Efficiency <= cr[3].Efficiency {
		t.Errorf("screening efficiency %.2f should exceed stencil %.2f",
			lr[3].Efficiency, cr[3].Efficiency)
	}
	if lr[3].Efficiency < 0.8 {
		t.Errorf("LiGen 8-device efficiency %.2f, want >= 0.8", lr[3].Efficiency)
	}
}

func TestCompareTuners(t *testing.T) {
	r, err := testConfig().CompareTuners()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("oracle %.4f | model %.4f (0 runs) | online %.4f (%d runs)",
		r.OracleEnergy, r.ModelEnergy, r.OnlineEnergy, r.OnlineMeasurements)
	// The model-driven tuner spends no application executions.
	if r.ModelMeasurements != 0 {
		t.Errorf("model tuner spent %d measurements", r.ModelMeasurements)
	}
	// Both tuners should land within a few percent of the oracle's energy.
	if r.ModelEnergy > r.OracleEnergy+0.06 {
		t.Errorf("model regret too large: %.4f vs oracle %.4f", r.ModelEnergy, r.OracleEnergy)
	}
	if r.OnlineEnergy > r.OracleEnergy+0.06 {
		t.Errorf("online regret too large: %.4f vs oracle %.4f", r.OnlineEnergy, r.OracleEnergy)
	}
	// The online tuner pays with real executions.
	if r.OnlineMeasurements <= 0 {
		t.Error("online tuner reported no measurement cost")
	}
	var buf bytes.Buffer
	RenderTuningComparison(&buf, r)
	if !strings.Contains(buf.String(), "model-driven") {
		t.Error("renderer missing model row")
	}
}

func TestVerifyShapesAllPass(t *testing.T) {
	checks, err := testConfig().VerifyShapes()
	if err != nil {
		t.Fatal(err)
	}
	if len(checks) < 10 {
		t.Fatalf("only %d shape checks, want >= 10", len(checks))
	}
	var buf bytes.Buffer
	failed := RenderShapeChecks(&buf, checks)
	if failed != 0 {
		t.Errorf("%d shape checks failed:\n%s", failed, buf.String())
	}
}

func TestFig7And9MI100Shapes(t *testing.T) {
	cfg := testConfig()
	fig7, err := cfg.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	fig9, err := cfg.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	for _, fig := range []Figure{fig7, fig9} {
		for _, s := range fig.Series {
			if s.Device != "AMD MI100" {
				t.Fatalf("%s series on %s, want MI100", fig.ID, s.Device)
			}
		}
	}
	// Fig 7 vs Fig 6: MI100 is slower and hotter on the same inputs.
	fig6, err := cfg.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	b6 := baselinePoint(t, fig6.Series[0])
	b7 := baselinePoint(t, fig7.Series[0])
	if b7.TimeS <= b6.TimeS || b7.EnergyJ <= b6.EnergyJ {
		t.Errorf("MI100 (%.3gs/%.3gJ) not above V100 (%.3gs/%.3gJ)",
			b7.TimeS, b7.EnergyJ, b6.TimeS, b6.EnergyJ)
	}
	// Fig 9: atom scaling is monotone on MI100 too.
	var prev float64
	for _, s := range fig9.Series[:4] {
		bp := baselinePoint(t, s)
		if bp.TimeS <= prev {
			t.Errorf("fig9 series %s time not increasing in atoms", s.Label)
		}
		prev = bp.TimeS
	}
}

func TestResilienceStudy(t *testing.T) {
	rows, err := testConfig().Resilience()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.FaultFree.Retries != 0 || r.FaultFree.Failovers != 0 || r.FaultFree.WastedEnergyJ != 0 {
			t.Errorf("%s: fault-free run reports recovery costs: %+v", r.App, r.FaultFree)
		}
		if r.Faulty.Failovers != 1 || r.Faulty.SurvivingDevices != 3 {
			t.Errorf("%s: failovers/surviving = %d/%d, want 1/3", r.App, r.Faulty.Failovers, r.Faulty.SurvivingDevices)
		}
		// Wall time always suffers. Energy may go either way: the thermal
		// throttle runs a device at a lower, more efficient clock, which can
		// outweigh the wasted re-executed work — the same time/energy
		// trade-off the frequency studies measure, arrived at by accident.
		if r.TimeOverhead() <= 0 {
			t.Errorf("%s: surviving faults must cost wall time, got %+.2f%%", r.App, r.TimeOverhead()*100)
		}
		if r.Faulty.WastedEnergyJ <= 0 {
			t.Errorf("%s: faulty run reports no wasted energy", r.App)
		}
	}
	var buf bytes.Buffer
	if err := testConfig().RenderResilience(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"resilience", "ligen", "cronos", "failovers", "checkpoint"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("render output missing %q:\n%s", want, buf.String())
		}
	}
}
