package tuner

import (
	"math"
	"testing/quick"

	"dsenergy/internal/xrand"
	"testing"

	"dsenergy/internal/core"
	"dsenergy/internal/cronos"
	"dsenergy/internal/faults"
	"dsenergy/internal/gpusim"
	"dsenergy/internal/ligen"
	"dsenergy/internal/ml"
	"dsenergy/internal/synergy"
)

// MinEnergy picks the lowest predicted normalized energy (ties: higher
// speedup): the stand-in policy of the tests below.
type MinEnergy struct{}

// Select implements Policy.
func (MinEnergy) Select(curve []core.CurvePoint) core.CurvePoint {
	best := curve[0]
	for _, c := range curve[1:] {
		// Exact stored-value tie-break between curve points.
		if c.NormEnergy < best.NormEnergy ||
			(c.NormEnergy == best.NormEnergy && c.Speedup > best.Speedup) {
			best = c
		}
	}
	return best
}

// MinEDP minimizes the energy-delay product E·t ∝ NormEnergy / Speedup.
type MinEDP struct{}

// Select implements Policy.
func (MinEDP) Select(curve []core.CurvePoint) core.CurvePoint {
	return minBy(curve, func(c core.CurvePoint) float64 {
		return c.NormEnergy / math.Max(c.Speedup, 1e-9)
	})
}

func minBy(curve []core.CurvePoint, key func(core.CurvePoint) float64) core.CurvePoint {
	best := curve[0]
	bk := key(best)
	for _, c := range curve[1:] {
		if k := key(c); k < bk {
			best, bk = c, k
		}
	}
	return best
}

// syntheticCurve is a typical compute-leaning trade-off: speedup and energy
// both grow with frequency, with an interior energy minimum.
func syntheticCurve() []core.CurvePoint {
	return []core.CurvePoint{
		{FreqMHz: 800, Speedup: 0.70, NormEnergy: 0.95},
		{FreqMHz: 1000, Speedup: 0.82, NormEnergy: 0.88},
		{FreqMHz: 1200, Speedup: 0.93, NormEnergy: 0.92},
		{FreqMHz: 1297, Speedup: 1.00, NormEnergy: 1.00},
		{FreqMHz: 1450, Speedup: 1.10, NormEnergy: 1.15},
		{FreqMHz: 1597, Speedup: 1.20, NormEnergy: 1.35},
	}
}

func TestPolicySelections(t *testing.T) {
	curve := syntheticCurve()
	cases := []struct {
		policy Policy
		want   int
	}{
		{MaxPerformance{}, 1597},
		{MinEnergy{}, 1000},
		{PerfConstraint{MinSpeedup: 0.90}, 1200},
		{PerfConstraint{MinSpeedup: 2.0}, 1597}, // unreachable -> max perf
	}
	for _, c := range cases {
		if got := c.policy.Select(curve); got.FreqMHz != c.want {
			t.Errorf("%#v selected %d MHz, want %d", c.policy, got.FreqMHz, c.want)
		}
	}
}

func testQueueAndDataset(t *testing.T) (*synergy.Queue, *core.Dataset, []core.FeaturedWorkload, []int) {
	t.Helper()
	p, err := synergy.NewPlatform(9, gpusim.V100Spec())
	if err != nil {
		t.Fatal(err)
	}
	q := p.Queues()[0]
	var wls []core.FeaturedWorkload
	for _, g := range [][3]int{{20, 8, 8}, {40, 16, 16}, {80, 32, 32}, {160, 64, 64}} {
		w, err := cronos.NewWorkload(g[0], g[1], g[2], 4)
		if err != nil {
			t.Fatal(err)
		}
		wls = append(wls, core.FeaturedWorkload{
			Workload: w,
			Features: []float64{float64(g[0]), float64(g[1]), float64(g[2])},
		})
	}
	band := q.Spec().FreqsAbove(0.45)
	var freqs []int
	for i := 0; i < len(band); i += 10 {
		freqs = append(freqs, band[i])
	}
	freqs = append(freqs, q.BaselineFreqMHz(), q.Spec().FMaxMHz())
	freqs = dedupInts(freqs)
	ds, err := core.BuildDataset(q, core.CronosSchema(), wls, core.BuildConfig{Freqs: freqs, Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	return q, ds, wls, freqs
}

func forestSpec() ml.Spec {
	return ml.Spec{Algorithm: "forest", Params: map[string]float64{"n_estimators": 20}}
}

func TestTunerFreqFor(t *testing.T) {
	_, ds, _, freqs := testQueueAndDataset(t)
	model, err := core.TrainNormalized(ds, forestSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := New(model, PerfConstraint{MinSpeedup: 0.98})
	if err != nil {
		t.Fatal(err)
	}
	f, choice, err := tn.FreqFor([]float64{160, 64, 64}, freqs)
	if err != nil {
		t.Fatal(err)
	}
	if f != choice.FreqMHz {
		t.Fatal("frequency/choice mismatch")
	}
	// The large grid is memory bound: the policy must find energy savings
	// below the baseline clock without violating the constraint.
	if f >= ds.BaselineFreqMHz {
		t.Errorf("policy chose %d MHz, expected below baseline %d for a memory-bound input",
			f, ds.BaselineFreqMHz)
	}
	if choice.NormEnergy >= 1 {
		t.Errorf("chosen point saves no energy: %+v", choice)
	}
}

func TestTunerValidation(t *testing.T) {
	if _, err := New(nil, MinEnergy{}); err == nil {
		t.Error("expected error for nil model")
	}
	_, ds, _, _ := testQueueAndDataset(t)
	model, err := core.TrainNormalized(ds, forestSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(model, nil); err == nil {
		t.Error("expected error for nil policy")
	}
	tn, _ := New(model, MinEnergy{})
	if _, _, err := tn.FreqFor([]float64{1, 2, 3}, nil); err == nil {
		t.Error("expected error for empty sweep")
	}
	// A clock chosen from a mis-shaped input would come from an all-zero
	// curve (too few features) or read the 4th feature as the clock (too
	// many).
	freqs := []int{ds.BaselineFreqMHz}
	for _, bad := range [][]float64{{160, 64}, {160, 64, 64, 700}} {
		if _, _, err := tn.FreqFor(bad, freqs); err == nil {
			t.Errorf("FreqFor accepted %d features for a 3-feature schema", len(bad))
		}
	}
}

func TestPerKernelTraining(t *testing.T) {
	q, _, wls, freqs := testQueueAndDataset(t)
	pk, err := TrainPerKernel(q, core.CronosSchema(), wls,
		core.BuildConfig{Freqs: freqs, Reps: 2}, forestSpec(),
		PerfConstraint{MinSpeedup: 0.97}, 5)
	if err != nil {
		t.Fatal(err)
	}
	ks := pk.Kernels()
	if len(ks) != 4 {
		t.Fatalf("want 4 Cronos kernels, got %v", ks)
	}
	plan, err := pk.PlanFor([]float64{160, 64, 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.FreqByKernel) != 4 {
		t.Fatalf("plan covers %d kernels", len(plan.FreqByKernel))
	}
	for name, f := range plan.FreqByKernel {
		if !q.Spec().HasFreq(f) {
			t.Errorf("kernel %s planned at non-table frequency %d", name, f)
		}
	}
	for _, bad := range [][]float64{{160, 64}, {160, 64, 64, 700}} {
		if _, err := pk.PlanFor(bad); err == nil {
			t.Errorf("PlanFor accepted %d features for a 3-feature schema", len(bad))
		}
	}
}

func TestPerKernelExecuteSavesEnergy(t *testing.T) {
	// The future-work claim: per-kernel scaling saves energy at bounded
	// performance loss, because memory-bound kernels (the whole Cronos
	// pipeline at large grids) can be down-clocked individually.
	q, _, wls, freqs := testQueueAndDataset(t)
	pk, err := TrainPerKernel(q, core.CronosSchema(), wls,
		core.BuildConfig{Freqs: freqs, Reps: 2}, forestSpec(),
		PerfConstraint{MinSpeedup: 0.95}, 5)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := pk.PlanFor([]float64{160, 64, 64})
	if err != nil {
		t.Fatal(err)
	}
	w, _ := cronos.NewWorkload(160, 64, 64, 4)
	out, err := pk.Execute(q, w, plan, 3)
	if err != nil {
		t.Fatal(err)
	}
	if saving := out.EnergySaving(); saving < 0.05 {
		t.Errorf("per-kernel tuning saved %.1f%%, want >= 5%%", saving*100)
	}
	if sp := out.Speedup(); sp < 0.90 {
		t.Errorf("per-kernel tuning lost %.1f%% performance, want <= 10%%", (1-sp)*100)
	}
}

func TestPerKernelRejectsOpaqueWorkload(t *testing.T) {
	q, _, _, freqs := testQueueAndDataset(t)
	opaque := core.FeaturedWorkload{Workload: opaqueWorkload{}, Features: []float64{1, 1, 1}}
	_, err := TrainPerKernel(q, core.CronosSchema(), []core.FeaturedWorkload{opaque},
		core.BuildConfig{Freqs: freqs, Reps: 1}, forestSpec(), MinEnergy{}, 1)
	if err == nil {
		t.Error("expected error for workload without kernel profiles")
	}
}

func TestPerKernelPlansDifferAcrossKernels(t *testing.T) {
	// LiGen's kernels have different boundedness (dock compute-bound,
	// sortPoses memory-light): a min-EDP plan should not pick one uniform
	// clock for everything on a large input.
	p, err := synergy.NewPlatform(9, gpusim.V100Spec())
	if err != nil {
		t.Fatal(err)
	}
	q := p.Queues()[0]
	var wls []core.FeaturedWorkload
	for _, l := range []int{1024, 4096, 10000} {
		w, err := ligen.NewWorkload(ligen.Input{Ligands: l, Atoms: 89, Fragments: 20})
		if err != nil {
			t.Fatal(err)
		}
		wls = append(wls, core.FeaturedWorkload{
			Workload: w, Features: []float64{float64(l), 20, 89},
		})
	}
	band := q.Spec().FreqsAbove(0.45)
	var freqs []int
	for i := 0; i < len(band); i += 12 {
		freqs = append(freqs, band[i])
	}
	freqs = append(freqs, q.BaselineFreqMHz(), q.Spec().FMaxMHz())
	pk, err := TrainPerKernel(q, core.LiGenSchema(), wls,
		core.BuildConfig{Freqs: dedupInts(freqs), Reps: 2}, forestSpec(), MinEDP{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := pk.PlanFor([]float64{10000, 20, 89})
	if err != nil {
		t.Fatal(err)
	}
	uniq := map[int]bool{}
	for _, f := range plan.FreqByKernel {
		uniq[f] = true
	}
	if len(uniq) < 2 {
		t.Errorf("per-kernel plan degenerate (all kernels at one clock): %v", plan.FreqByKernel)
	}
}

type opaqueWorkload struct{}

func (opaqueWorkload) Name() string                                   { return "opaque" }
func (opaqueWorkload) RunOn(*synergy.Queue) (float64, float64, error) { return 1, 1, nil }

func dedupInts(fs []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, f := range fs {
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func TestOnlineSearchFindsGoodConfiguration(t *testing.T) {
	q, ds, _, freqs := testQueueAndDataset(t)
	w, _ := cronos.NewWorkload(160, 64, 64, 4)
	policy := PerfConstraint{MinSpeedup: 0.97}

	res, err := OnlineSearch(q, w, freqs, 2, policy)
	if err != nil {
		t.Fatal(err)
	}
	if res.Measurements == 0 || len(res.Probed) == 0 {
		t.Fatal("online search measured nothing")
	}
	// The search must spend strictly fewer probes than exhaustive sweep
	// but land within a few percent of the oracle's energy.
	if res.Measurements >= len(freqs)*2 {
		t.Errorf("online search used %d measurements, sweep would be %d", res.Measurements, len(freqs)*2)
	}
	oracle, err := Oracle(ds, []float64{160, 64, 64}, policy)
	if err != nil {
		t.Fatal(err)
	}
	if res.Choice.NormEnergy > oracle.NormEnergy+0.05 {
		t.Errorf("online choice energy %.3f far from oracle %.3f", res.Choice.NormEnergy, oracle.NormEnergy)
	}
}

func TestOnlineSearchValidation(t *testing.T) {
	q, _, _, freqs := testQueueAndDataset(t)
	w, _ := cronos.NewWorkload(20, 8, 8, 2)
	if _, err := OnlineSearch(q, w, nil, 1, MinEnergy{}); err == nil {
		t.Error("expected error for empty table")
	}
	if _, err := OnlineSearch(q, w, freqs, 1, nil); err == nil {
		t.Error("expected error for nil policy")
	}
}

func TestOracleMatchesTruthOptimum(t *testing.T) {
	_, ds, _, _ := testQueueAndDataset(t)
	choice, err := Oracle(ds, []float64{160, 64, 64}, MinEnergy{})
	if err != nil {
		t.Fatal(err)
	}
	truth, err := ds.TrueCurves([]float64{160, 64, 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range truth {
		if c.NormEnergy < choice.NormEnergy {
			t.Fatalf("oracle missed a better point: %+v vs %+v", c, choice)
		}
	}
	if _, err := Oracle(ds, []float64{1, 2, 3}, MinEnergy{}); err == nil {
		t.Error("expected error for unknown input")
	}
}

func TestPoliciesSelectFromCurveProperty(t *testing.T) {
	// Property: every policy returns a member of the curve, and each
	// policy's choice is optimal for its own objective.
	f := func(seed uint16, n uint8) bool {
		rng := xrand.New(uint64(seed) + 1)
		size := int(n%20) + 2
		curve := make([]core.CurvePoint, size)
		for i := range curve {
			curve[i] = core.CurvePoint{
				FreqMHz:    600 + 10*i,
				Speedup:    0.5 + rng.Float64(),
				NormEnergy: 0.5 + rng.Float64(),
			}
		}
		member := func(p core.CurvePoint) bool {
			for _, c := range curve {
				if c == p {
					return true
				}
			}
			return false
		}
		mp := MaxPerformance{}.Select(curve)
		me := MinEnergy{}.Select(curve)
		edp := MinEDP{}.Select(curve)
		if !member(mp) || !member(me) || !member(edp) {
			return false
		}
		for _, c := range curve {
			if c.Speedup > mp.Speedup {
				return false
			}
			if c.NormEnergy < me.NormEnergy {
				return false
			}
			if c.NormEnergy/c.Speedup < edp.NormEnergy/edp.Speedup-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestOnlineSearchFailsCleanlyOnDeviceFault(t *testing.T) {
	p, err := synergy.NewPlatform(9, gpusim.V100Spec())
	if err != nil {
		t.Fatal(err)
	}
	q := p.Queues()[0]
	// The device fails permanently after the baseline measurement (a 4-kernel
	// Cronos workload at reps=1), so the first probe hits a dead device.
	plan := faults.Plan{
		Seed:     1,
		Failures: []faults.DeviceFailure{{Device: 0, AfterSubmits: 5}},
	}
	inj, err := faults.NewInjector(plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	q.SetFaultInjector(inj.Device(0))
	w, _ := cronos.NewWorkload(40, 16, 16, 4)
	freqs := q.Spec().FreqsAbove(0.6)
	res, err := OnlineSearch(q, w, freqs, 1, MinEnergy{})
	if err == nil {
		t.Fatal("expected mid-search device fault to surface as an error")
	}
	if !faults.IsPermanent(err) {
		t.Errorf("error should wrap the device fault, got: %v", err)
	}
	if res.Measurements != 0 || res.Choice.FreqMHz != 0 {
		t.Errorf("failed search must not return a half-built result: %+v", res)
	}
}

func TestOnlineSearchRecordsThrottledProbesAtEffectiveClock(t *testing.T) {
	p, err := synergy.NewPlatform(9, gpusim.V100Spec())
	if err != nil {
		t.Fatal(err)
	}
	q := p.Queues()[0]
	// A thermal-throttle window spanning the whole search caps the device
	// well below every table clock: whatever the search requests, the device
	// runs at the cap.
	const capMHz = 900
	plan := faults.Plan{
		Seed:      1,
		Throttles: []faults.Throttle{{Device: 0, FromSubmit: 1, ToSubmit: 1 << 30, CapMHz: capMHz}},
	}
	inj, err := faults.NewInjector(plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	q.SetFaultInjector(inj.Device(0))
	w, _ := cronos.NewWorkload(40, 16, 16, 4)
	freqs := q.Spec().FreqsAbove(0.75) // all above the cap
	for _, f := range freqs {
		if f <= capMHz {
			t.Fatalf("test premise broken: table clock %d below cap %d", f, capMHz)
		}
	}
	res, err := OnlineSearch(q, w, freqs, 1, MinEnergy{})
	if err != nil {
		t.Fatal(err)
	}
	want := q.Spec().FloorFreqMHz(capMHz)
	if res.Choice.FreqMHz != want {
		t.Errorf("throttled search chose %d MHz, want effective clock %d", res.Choice.FreqMHz, want)
	}
	// The probe log still records the requested clocks — that is what the
	// governor asked for; only the measured points carry the effective clock.
	for _, f := range res.Probed {
		if f <= capMHz {
			t.Errorf("probe log contains effective clock %d, want requested clocks only", f)
		}
	}
}
