package gpusim

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"dsenergy/internal/kernels"
)

// mustNew builds a device from a known-good spec, failing the test on error.
func mustNew(tb testing.TB, spec Spec, seed uint64) *Device {
	tb.Helper()
	d, err := New(spec, seed)
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// computeBound is a kernel profile that saturates the ALUs with negligible
// memory traffic.
func computeBound() kernels.Profile {
	return kernels.Profile{
		Name: "compute",
		Mix: kernels.InstructionMix{
			FloatAdd: 200, FloatMul: 200, IntAdd: 20, GlobalAcc: 1,
		},
		WorkItems: 1 << 20, Launches: 8,
		WorkingSetBytes: 1 << 20, CacheReuse: 0.9,
	}
}

// memoryBound is a streaming kernel with minimal arithmetic.
func memoryBound() kernels.Profile {
	return kernels.Profile{
		Name: "stream",
		Mix: kernels.InstructionMix{
			FloatAdd: 2, IntAdd: 4, GlobalAcc: 48,
		},
		WorkItems: 1 << 20, Launches: 8,
		WorkingSetBytes: 512 << 20, CacheReuse: 0,
	}
}

func TestPresetSpecsValid(t *testing.T) {
	for _, s := range AllSpecs() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestV100FrequencyTable(t *testing.T) {
	s := V100Spec()
	if got := len(s.CoreFreqsMHz); got != 196 {
		t.Errorf("V100 frequency count %d, want 196 (as in the paper)", got)
	}
	if s.FMinMHz() != 135 || s.FMaxMHz() != 1597 {
		t.Errorf("V100 range %d-%d, want 135-1597", s.FMinMHz(), s.FMaxMHz())
	}
	if s.MemFreqMHz != 1107 {
		t.Errorf("V100 memory clock %d, want 1107", s.MemFreqMHz)
	}
	if !s.HasFreq(s.DefaultFreqMHz) {
		t.Error("default frequency not in table")
	}
}

func TestSpecValidationErrors(t *testing.T) {
	base := V100Spec()
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"no CUs", func(s *Spec) { s.NumCU = 0 }},
		{"short table", func(s *Spec) { s.CoreFreqsMHz = []int{100} }},
		{"unsorted table", func(s *Spec) { s.CoreFreqsMHz = []int{200, 100, 300} }},
		{"bad eff", func(s *Spec) { s.ComputeEff = 1.5 }},
		{"bad voltage", func(s *Spec) { s.VMax = 0.1 }},
		{"nvidia no default", func(s *Spec) { s.DefaultFreqMHz = 0 }},
	}
	for _, c := range cases {
		s := base
		c.mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
	amd := MI100Spec()
	amd.AutoFreqMHz = 0
	if err := amd.Validate(); err == nil {
		t.Error("AMD spec without auto frequency should be invalid")
	}
}

func TestNearestFreq(t *testing.T) {
	s := V100Spec()
	for _, f := range []int{0, 135, 800, 1297, 1597, 5000} {
		n := s.NearestFreqMHz(f)
		if !s.HasFreq(n) {
			t.Errorf("nearest(%d) = %d not in table", f, n)
		}
	}
	if n := s.NearestFreqMHz(0); n != 135 {
		t.Errorf("nearest(0) = %d, want 135", n)
	}
	if n := s.NearestFreqMHz(9999); n != 1597 {
		t.Errorf("nearest(9999) = %d, want 1597", n)
	}
}

func TestFreqsAbove(t *testing.T) {
	s := V100Spec()
	band := s.FreqsAbove(0.5)
	min := 0.5 * float64(s.FMaxMHz())
	for _, f := range band {
		if float64(f) < min {
			t.Errorf("band frequency %d below %.0f", f, min)
		}
	}
	if band[len(band)-1] != s.FMaxMHz() {
		t.Error("band misses f_max")
	}
}

func TestVoltageCurveMonotone(t *testing.T) {
	s := V100Spec()
	prev := 0.0
	for _, f := range s.CoreFreqsMHz {
		v := s.voltageAt(f)
		if v < s.VMin-1e-12 || v > s.VMax+1e-12 {
			t.Fatalf("voltage %g at %d MHz out of [%g,%g]", v, f, s.VMin, s.VMax)
		}
		if v < prev {
			t.Fatalf("voltage curve not monotone at %d MHz", f)
		}
		prev = v
	}
	if got := s.voltageAt(s.FMaxMHz()); math.Abs(got-s.VMax) > 1e-9 {
		t.Errorf("voltage at f_max %g, want VMax %g", got, s.VMax)
	}
}

func TestComputeBoundTimeScalesInverseFreq(t *testing.T) {
	d := mustNew(t, V100Spec(), 1)
	p := computeBound()
	t1 := d.Analytic(p, 800).TimeS
	t2 := d.Analytic(p, 1597).TimeS
	ratio := t1 / t2
	want := 1597.0 / 800.0
	if math.Abs(ratio-want) > 0.1*want {
		t.Errorf("compute-bound time ratio %g, want ~%g", ratio, want)
	}
}

func TestMemoryBoundTimeFlat(t *testing.T) {
	d := mustNew(t, V100Spec(), 1)
	p := memoryBound()
	t1 := d.Analytic(p, 800).TimeS
	t2 := d.Analytic(p, 1597).TimeS
	if rel := math.Abs(t1-t2) / t2; rel > 0.05 {
		t.Errorf("memory-bound time varies %.1f%% across 800-1597 MHz, want flat", rel*100)
	}
}

func TestPowerIncreasesWithFrequency(t *testing.T) {
	d := mustNew(t, V100Spec(), 1)
	p := computeBound()
	prev := 0.0
	for _, f := range []int{800, 1000, 1200, 1400, 1597} {
		pw := d.Analytic(p, f).AvgPowerW
		if pw <= prev {
			t.Fatalf("power not increasing at %d MHz: %g <= %g", f, pw, prev)
		}
		prev = pw
	}
}

func TestEnergyBowlExistsForComputeBound(t *testing.T) {
	// Compute-bound energy over frequency is a bowl: very low clocks pay
	// idle energy, very high clocks pay V²f — the minimum is interior.
	d := mustNew(t, V100Spec(), 1)
	p := computeBound()
	s := d.Spec()
	eMin, fMin := math.Inf(1), 0
	for _, f := range s.CoreFreqsMHz {
		e := d.Analytic(p, f).EnergyJ
		if e < eMin {
			eMin, fMin = e, f
		}
	}
	if fMin == s.FMinMHz() || fMin == s.FMaxMHz() {
		t.Errorf("energy minimum at range edge (%d MHz); want interior bowl", fMin)
	}
}

func TestOccupancyLowersPower(t *testing.T) {
	d := mustNew(t, V100Spec(), 1)
	big := computeBound()
	small := big
	small.WorkItems = 512
	pBig := d.Analytic(big, 1297).AvgPowerW
	pSmall := d.Analytic(small, 1297).AvgPowerW
	if pSmall >= pBig {
		t.Errorf("under-utilized launch power %g not below saturated %g", pSmall, pBig)
	}
}

func TestCacheSpillIncreasesTime(t *testing.T) {
	d := mustNew(t, V100Spec(), 1)
	fits := memoryBound()
	fits.CacheReuse = 0.9
	fits.WorkingSetBytes = 1 << 20
	spills := fits
	spills.WorkingSetBytes = 512 << 20
	tFits := d.Analytic(fits, 1297).TimeS
	tSpills := d.Analytic(spills, 1297).TimeS
	if tSpills <= tFits {
		t.Errorf("spilled working set time %g not above cache-resident %g", tSpills, tFits)
	}
}

func TestLaunchOverheadAdds(t *testing.T) {
	d := mustNew(t, V100Spec(), 1)
	one := computeBound()
	one.Launches = 1
	many := one
	many.Launches = 100
	t1 := d.Analytic(one, 1297).TimeS
	t100 := d.Analytic(many, 1297).TimeS
	if math.Abs(t100-100*t1)/(100*t1) > 1e-9 {
		t.Errorf("launch scaling: %g vs 100x%g", t100, t1)
	}
}

func TestBreakdownConsistency(t *testing.T) {
	d := mustNew(t, V100Spec(), 1)
	for _, p := range []kernels.Profile{computeBound(), memoryBound()} {
		b := d.AnalyzeAt(p, 1297)
		if math.Abs(b.EnergyJ-b.TotalPowerW*b.TimeS) > 1e-9*b.EnergyJ {
			t.Errorf("%s: energy %g != power*time %g", p.Name, b.EnergyJ, b.TotalPowerW*b.TimeS)
		}
		sum := b.IdleW + b.LeakW + b.DynW + b.MemW
		if math.Abs(sum-b.TotalPowerW) > 1e-9 {
			t.Errorf("%s: power components %g != total %g", p.Name, sum, b.TotalPowerW)
		}
		if b.MemBound != (b.MemTimeS > b.ComputeTimeS) {
			t.Errorf("%s: MemBound flag inconsistent", p.Name)
		}
	}
}

func TestRunAccumulatesEnergyCounter(t *testing.T) {
	d := mustNew(t, V100Spec(), 1)
	p := computeBound()
	if d.EnergyCounterJ() != 0 {
		t.Fatal("fresh device has nonzero energy counter")
	}
	r1, err := d.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.EnergyCounterJ()-r1.EnergyJ) > 1e-12 {
		t.Error("counter does not match first run")
	}
	r2, _ := d.Run(p)
	if math.Abs(d.EnergyCounterJ()-(r1.EnergyJ+r2.EnergyJ)) > 1e-9 {
		t.Error("counter does not accumulate")
	}
}

func TestNoiseIsSeededAndBounded(t *testing.T) {
	a := mustNew(t, V100Spec(), 77)
	b := mustNew(t, V100Spec(), 77)
	p := computeBound()
	ra, _ := a.Run(p)
	rb, _ := b.Run(p)
	if ra != rb {
		t.Error("identically seeded devices observed different measurements")
	}
	c := mustNew(t, V100Spec(), 78)
	rc, _ := c.Run(p)
	if rc == ra {
		t.Error("different seeds produced identical noise")
	}
	// Noise is small: within 5% of the analytic value.
	exact := a.Analytic(p, a.CoreFreqMHz())
	if rel := math.Abs(ra.TimeS-exact.TimeS) / exact.TimeS; rel > 0.05 {
		t.Errorf("noise magnitude %.2f%% too large", rel*100)
	}
}

func TestZeroNoiseMatchesAnalytic(t *testing.T) {
	d := mustNew(t, V100Spec(), 1)
	d.SetNoiseSigma(0)
	p := computeBound()
	r, _ := d.Run(p)
	exact := d.Analytic(p, d.CoreFreqMHz())
	if r.TimeS != exact.TimeS || r.EnergyJ != exact.EnergyJ {
		t.Error("zero-noise run differs from analytic result")
	}
}

func TestSetCoreFreqValidation(t *testing.T) {
	d := mustNew(t, V100Spec(), 1)
	if err := d.SetCoreFreqMHz(123456); err == nil {
		t.Error("expected error for frequency not in table")
	}
	if err := d.SetCoreFreqMHz(d.Spec().FMaxMHz()); err != nil {
		t.Errorf("valid frequency rejected: %v", err)
	}
	d.ResetCoreFreq()
	if d.CoreFreqMHz() != d.Spec().BaselineFreqMHz() {
		t.Error("reset did not restore baseline")
	}
	if _, err := d.RunAt(computeBound(), 1); err == nil {
		t.Error("RunAt with bad frequency should fail")
	}
}

func TestAMDBaselineIsAuto(t *testing.T) {
	s := MI100Spec()
	if s.BaselineFreqMHz() != s.AutoFreqMHz {
		t.Errorf("AMD baseline %d, want auto %d", s.BaselineFreqMHz(), s.AutoFreqMHz)
	}
	if s.Vendor.String() != "AMD" {
		t.Errorf("vendor string %q", s.Vendor)
	}
	if NVIDIA.String() != "NVIDIA" || Vendor(9).String() == "" {
		t.Error("vendor strings")
	}
}

func TestAnalyticAlwaysPositive(t *testing.T) {
	d := mustNew(t, V100Spec(), 1)
	s := d.Spec()
	f := func(items uint16, launches, ga, fa uint8, reuse float64) bool {
		p := kernels.Profile{
			Name: "q",
			Mix: kernels.InstructionMix{
				FloatAdd: float64(fa) + 1, GlobalAcc: float64(ga),
			},
			WorkItems:       float64(items) + 1,
			Launches:        float64(launches) + 1,
			WorkingSetBytes: float64(items) * 64,
			CacheReuse:      math.Mod(math.Abs(reuse), 0.99),
		}
		if p.Validate() != nil {
			return true
		}
		for _, freq := range []int{s.FMinMHz(), s.BaselineFreqMHz(), s.FMaxMHz()} {
			r := d.Analytic(p, freq)
			if !(r.TimeS > 0) || !(r.EnergyJ > 0) || math.IsInf(r.EnergyJ, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAnalyzeAt(b *testing.B) {
	// cached: steady-state hit on the device's analytic cache (the shape of
	// every repeated sweep/probe/decision evaluation).
	b.Run("cached", func(b *testing.B) {
		d := mustNew(b, V100Spec(), 1)
		p := computeBound()
		d.AnalyzeAt(p, 1297)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = d.AnalyzeAt(p, 1297)
		}
	})
	// uncached: the pure evaluation cost with the cache disabled — the cost
	// every first touch of a (profile, frequency) pays.
	b.Run("uncached", func(b *testing.B) {
		d := mustNew(b, V100Spec(), 1)
		d.cache = nil
		p := computeBound()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = d.AnalyzeAt(p, 1297)
		}
	})
	// contention: GOMAXPROCS goroutines hammering one shared cache across the
	// clock menu, the parallel-sweep access pattern (forked devices share the
	// parent's cache).
	b.Run("contention", func(b *testing.B) {
		d := mustNew(b, V100Spec(), 1)
		p := computeBound()
		freqs := d.Spec().CoreFreqsMHz
		for _, f := range freqs {
			d.AnalyzeAt(p, f)
		}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			c := d.Fork()
			i := 0
			for pb.Next() {
				_ = c.AnalyzeAt(p, freqs[i%len(freqs)])
				i++
			}
		})
	})
}

func TestPowerCapThrottles(t *testing.T) {
	d := mustNew(t, V100Spec(), 1)
	d.SetNoiseSigma(0)
	p := computeBound()
	fmax := d.Spec().FMaxMHz()

	uncapped := d.Analytic(p, fmax)
	if uncapped.AvgPowerW < 150 {
		t.Fatalf("test premise broken: uncapped power %g too low", uncapped.AvgPowerW)
	}
	cap := uncapped.AvgPowerW * 0.7
	if err := d.SetPowerCapW(cap); err != nil {
		t.Fatal(err)
	}
	r, err := d.RunAt(p, fmax)
	if err != nil {
		t.Fatal(err)
	}
	if r.AvgPowerW > cap*1.0001 {
		t.Errorf("capped run drew %g W, cap %g W", r.AvgPowerW, cap)
	}
	if r.TimeS <= uncapped.TimeS {
		t.Errorf("throttled run not slower: %g vs %g", r.TimeS, uncapped.TimeS)
	}
}

func TestPowerCapDisabledByZero(t *testing.T) {
	d := mustNew(t, V100Spec(), 1)
	d.SetNoiseSigma(0)
	p := computeBound()
	fmax := d.Spec().FMaxMHz()
	if err := d.SetPowerCapW(100); err != nil {
		t.Fatal(err)
	}
	if err := d.SetPowerCapW(0); err != nil {
		t.Fatal(err)
	}
	r, _ := d.RunAt(p, fmax)
	exact := d.Analytic(p, fmax)
	if r.TimeS != exact.TimeS {
		t.Error("cap=0 should disable throttling")
	}
}

func TestPowerCapBelowMinimumUsesLowestClock(t *testing.T) {
	d := mustNew(t, V100Spec(), 1)
	d.SetNoiseSigma(0)
	p := computeBound()
	if err := d.SetPowerCapW(1); err != nil { // unachievable
		t.Fatal(err)
	}
	r, err := d.RunAt(p, d.Spec().FMaxMHz())
	if err != nil {
		t.Fatal(err)
	}
	lowest := d.Analytic(p, d.Spec().FMinMHz())
	if r.TimeS != lowest.TimeS {
		t.Errorf("unachievable cap should pin the lowest clock: %g vs %g", r.TimeS, lowest.TimeS)
	}
}

func TestPowerCapValidation(t *testing.T) {
	d := mustNew(t, V100Spec(), 1)
	if err := d.SetPowerCapW(-5); err == nil {
		t.Error("expected error for negative cap")
	}
	if err := d.SetPowerCapW(250); err != nil {
		t.Fatal(err)
	}
	if d.powerCapW != 250 {
		t.Errorf("cap %g, want 250", d.powerCapW)
	}
}

func TestThermalThrottling(t *testing.T) {
	spec := V100Spec()
	// Tighten the thermal envelope so the compute-bound kernel at f_max
	// exceeds it: ceiling = (70-30)/0.2 = 200 W.
	spec.ThermalResKW = 0.2
	spec.TAmbientC = 30
	spec.TThrottleC = 70
	d := mustNew(t, spec, 1)
	d.SetNoiseSigma(0)
	p := computeBound()

	r, err := d.RunAt(p, spec.FMaxMHz())
	if err != nil {
		t.Fatal(err)
	}
	if r.AvgPowerW > 200*1.0001 {
		t.Errorf("thermally throttled run drew %g W, ceiling 200 W", r.AvgPowerW)
	}
	unthrottled := d.Analytic(p, spec.FMaxMHz())
	if r.TimeS <= unthrottled.TimeS {
		t.Error("thermal throttling did not slow the kernel")
	}
}

func TestPresetsDoNotThrottleAtFMax(t *testing.T) {
	// The preset envelopes are calibrated so every paper experiment runs
	// unthrottled: the governor never silently changes the swept clock.
	for _, spec := range []Spec{V100Spec(), MI100Spec()} {
		d := mustNew(t, spec, 1)
		d.SetNoiseSigma(0)
		p := computeBound()
		r, _ := d.RunAt(p, spec.FMaxMHz())
		exact := d.Analytic(p, spec.FMaxMHz())
		if r != exact {
			t.Errorf("%s throttles a saturated kernel at f_max", spec.Name)
		}
	}
}

func TestA100PresetValid(t *testing.T) {
	s := A100Spec()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// A100 outperforms V100 on a saturated compute kernel (more CUs).
	dv := mustNew(t, V100Spec(), 1)
	da := mustNew(t, A100Spec(), 1)
	p := computeBound()
	tv := dv.Analytic(p, V100Spec().BaselineFreqMHz()).TimeS
	ta := da.Analytic(p, A100Spec().BaselineFreqMHz()).TimeS
	if ta >= tv {
		t.Errorf("A100 compute time %g not below V100 %g", ta, tv)
	}
}

func TestFloorFreq(t *testing.T) {
	s := V100Spec()
	if got := s.FloorFreqMHz(s.FMaxMHz() + 100); got != s.FMaxMHz() {
		t.Errorf("floor above table %d, want f_max %d", got, s.FMaxMHz())
	}
	if got := s.FloorFreqMHz(s.FMinMHz() - 1); got != s.FMinMHz() {
		t.Errorf("floor below table %d, want f_min %d", got, s.FMinMHz())
	}
	if got := s.FloorFreqMHz(s.DefaultFreqMHz); got != s.DefaultFreqMHz {
		t.Errorf("floor of a table frequency %d, want itself %d", got, s.DefaultFreqMHz)
	}
	// Between two table entries the floor is the lower one, never the
	// nearest: a throttle cap must not be exceeded by rounding up.
	mid := s.CoreFreqsMHz[10] + 1
	if got := s.FloorFreqMHz(mid); got != s.CoreFreqsMHz[10] {
		t.Errorf("floor of %d = %d, want %d", mid, got, s.CoreFreqsMHz[10])
	}
}

func TestAddEnergyAdvancesCounter(t *testing.T) {
	d := mustNew(t, V100Spec(), 1)
	before := d.EnergyCounterJ()
	d.AddEnergyJ(12.5)
	if got := d.EnergyCounterJ() - before; math.Abs(got-12.5) > 1e-12 {
		t.Errorf("counter advanced by %g, want 12.5", got)
	}
}

// AllSpecs returns every preset, including devices beyond the paper's
// testbed.
func AllSpecs() []Spec { return []Spec{V100Spec(), MI100Spec(), A100Spec()} }

// SetPowerCapW sets a board power limit in the style of NVML's power
// management limit / ROCm-SMI's power cap: when a kernel's steady-state
// power at the selected clock would exceed the cap, the device throttles to
// the highest table frequency that satisfies it. A cap of 0 disables
// limiting. Negative caps are rejected.
func (d *Device) SetPowerCapW(watts float64) error {
	if watts < 0 {
		return fmt.Errorf("gpusim: %s: negative power cap %g W", d.spec.Name, watts)
	}
	d.powerCapW = watts
	return nil
}

// SetNoiseSigma replaces the relative noise level (0 disables noise).
func (d *Device) SetNoiseSigma(sigma float64) { d.noise.Sigma = sigma }
