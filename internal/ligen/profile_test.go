package ligen

import (
	"testing"

	"dsenergy/internal/gpusim"
	"dsenergy/internal/synergy"
)

func v100(t *testing.T) *gpusim.Device {
	t.Helper()
	return mustDevice(t, gpusim.V100Spec())
}

// mustDevice builds a device from a known-good spec, failing the test on error.
func mustDevice(t *testing.T, spec gpusim.Spec) *gpusim.Device {
	t.Helper()
	d, err := gpusim.New(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestInputValidation(t *testing.T) {
	for _, in := range []Input{
		{0, 31, 4}, {10, 1, 1}, {10, 31, 0}, {10, 4, 5},
	} {
		if err := in.Validate(); err == nil {
			t.Errorf("input %+v should be invalid", in)
		}
	}
	if err := (Input{Ligands: 2, Atoms: 89, Fragments: 8}).Validate(); err != nil {
		t.Errorf("paper input rejected: %v", err)
	}
}

func TestWorkloadProfilesValid(t *testing.T) {
	w, err := NewWorkload(Input{Ligands: 10000, Atoms: 89, Fragments: 20})
	if err != nil {
		t.Fatal(err)
	}
	ps := w.Profiles()
	if len(ps) != 3 {
		t.Fatalf("want dock/score/sortPoses kernels, got %d", len(ps))
	}
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			t.Errorf("kernel %s: %v", p.Name, err)
		}
	}
	// 10000 ligands at a 2048 batch = 5 launches.
	if ps[0].Launches != 5 {
		t.Errorf("dock launches %g, want 5", ps[0].Launches)
	}
}

func TestWorkloadRigidLigandStillHasWork(t *testing.T) {
	w, err := NewWorkload(Input{Ligands: 16, Atoms: 31, Fragments: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range w.Profiles() {
		if err := p.Validate(); err != nil {
			t.Errorf("kernel %s invalid for rigid ligand: %v", p.Name, err)
		}
	}
}

func TestLargeInputComputeBoundSpeedup(t *testing.T) {
	// Figure 10b: at the large input (10000 x 89 x 20) raising the clock to
	// the maximum buys ~20% speedup at a substantial energy increase.
	dev := v100(t)
	w, _ := NewWorkload(Input{Ligands: 10000, Atoms: 89, Fragments: 20})
	def := dev.Spec().BaselineFreqMHz()
	tDef, eDef := w.AnalyticOn(dev, def)
	tMax, eMax := w.AnalyticOn(dev, dev.Spec().FMaxMHz())
	sp := tDef / tMax
	if sp < 1.10 || sp > 1.30 {
		t.Errorf("large-input speedup at fmax = %.3f, want ~1.2 (compute leaning)", sp)
	}
	if inc := eMax/eDef - 1; inc < 0.15 {
		t.Errorf("large-input up-clock energy increase %.1f%%, want >= 15%%", inc*100)
	}
}

func TestSmallInputNoDownclockSavings(t *testing.T) {
	// Figure 2a: with 2 ligands the device is underutilized; down-clocking
	// gives no energy savings while up-clocking still buys speedup.
	dev := v100(t)
	w, _ := NewWorkload(Input{Ligands: 2, Atoms: 89, Fragments: 8})
	def := dev.Spec().BaselineFreqMHz()
	tDef, eDef := w.AnalyticOn(dev, def)

	low := dev.Spec().NearestFreqMHz(def * 7 / 10)
	_, eLow := w.AnalyticOn(dev, low)
	if eLow < eDef*0.99 {
		t.Errorf("small input should not save energy by down-clocking: %.3g -> %.3g J", eDef, eLow)
	}
	tMax, _ := w.AnalyticOn(dev, dev.Spec().FMaxMHz())
	if sp := tDef / tMax; sp < 1.10 {
		t.Errorf("small input up-clock speedup %.3f, want >= 1.10 (latency bound)", sp)
	}
}

func TestLargeInputDownclockSavings(t *testing.T) {
	// Figure 2b: at the large input, down-clocking saves energy.
	dev := v100(t)
	w, _ := NewWorkload(Input{Ligands: 10000, Atoms: 89, Fragments: 20})
	def := dev.Spec().BaselineFreqMHz()
	_, eDef := w.AnalyticOn(dev, def)
	low := dev.Spec().NearestFreqMHz(def * 3 / 4)
	_, eLow := w.AnalyticOn(dev, low)
	if saving := 1 - eLow/eDef; saving < 0.03 {
		t.Errorf("large-input down-clock saving %.1f%%, want >= 3%%", saving*100)
	}
}

func TestEnergyAndTimeGrowWithInputDimensions(t *testing.T) {
	// Figures 6 and 8: both time and energy grow with fragments and atoms.
	dev := v100(t)
	def := dev.Spec().BaselineFreqMHz()
	base := Input{Ligands: 1024, Atoms: 31, Fragments: 4}
	wBase, _ := NewWorkload(base)
	t0, e0 := wBase.AnalyticOn(dev, def)

	grow := []Input{
		{Ligands: 1024, Atoms: 31, Fragments: 8},
		{Ligands: 1024, Atoms: 63, Fragments: 4},
		{Ligands: 4096, Atoms: 31, Fragments: 4},
	}
	for _, in := range grow {
		w, _ := NewWorkload(in)
		t1, e1 := w.AnalyticOn(dev, def)
		if t1 <= t0 {
			t.Errorf("input %v: time %.3g not above base %.3g", in, t1, t0)
		}
		if e1 <= e0 {
			t.Errorf("input %v: energy %.3g not above base %.3g", in, e1, e0)
		}
	}
}

func TestMI100SlowerAndHotterThanV100(t *testing.T) {
	// Figure 7 vs 6: both time and energy are higher on the MI100.
	dv := v100(t)
	da := mustDevice(t, gpusim.MI100Spec())
	w, _ := NewWorkload(Input{Ligands: 4096, Atoms: 89, Fragments: 20})
	tv, ev := w.AnalyticOn(dv, dv.Spec().BaselineFreqMHz())
	ta, ea := w.AnalyticOn(da, da.Spec().BaselineFreqMHz())
	if ta <= tv {
		t.Errorf("MI100 time %.3g should exceed V100 %.3g", ta, tv)
	}
	if ea <= ev {
		t.Errorf("MI100 energy %.3g should exceed V100 %.3g", ea, ev)
	}
}

func TestMI100AutoNearBestSpeedup(t *testing.T) {
	// Figure 10c/d: the AMD auto performance level is close to the best
	// achievable speedup; no frequency beats it by more than a few percent.
	da := mustDevice(t, gpusim.MI100Spec())
	w, _ := NewWorkload(Input{Ligands: 10000, Atoms: 89, Fragments: 20})
	tAuto, _ := w.AnalyticOn(da, da.Spec().BaselineFreqMHz())
	best := tAuto
	for _, f := range da.Spec().CoreFreqsMHz {
		ts, _ := w.AnalyticOn(da, f)
		if ts < best {
			best = ts
		}
	}
	if sp := tAuto / best; sp > 1.10 {
		t.Errorf("a fixed clock beats AMD auto by %.1f%%, want <= 10%%", (sp-1)*100)
	}
}

func TestWorkloadRunOnQueue(t *testing.T) {
	p, err := synergy.NewPlatform(3, gpusim.V100Spec())
	if err != nil {
		t.Fatal(err)
	}
	q := p.Queues()[0]
	w, _ := NewWorkload(Input{Ligands: 256, Atoms: 31, Fragments: 4})
	ts, ej, err := w.RunOn(q)
	if err != nil {
		t.Fatal(err)
	}
	if ts <= 0 || ej <= 0 {
		t.Fatalf("non-positive observation t=%g e=%g", ts, ej)
	}
	if got := q.EventCount(); got != 3 {
		t.Errorf("want 3 kernel events, got %d", got)
	}
}
