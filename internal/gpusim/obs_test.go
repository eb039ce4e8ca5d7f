package gpusim

import (
	"bytes"
	"strings"
	"testing"

	"dsenergy/internal/obs"
)

func TestNewErrorPathReachableWithoutCrash(t *testing.T) {
	// Library code must return construction errors, never panic (the old
	// MustNew escape hatch is gone).
	bad := V100Spec()
	bad.NumCU = 0
	if _, err := New(bad, 1); err == nil {
		t.Fatal("invalid spec must be rejected with an error")
	}
}

func TestDeviceObserverCounters(t *testing.T) {
	o := obs.NewObserver()
	d := mustNew(t, V100Spec(), 1)
	d.SetObserver(o)
	p := computeBound()

	if _, err := d.Run(p); err != nil {
		t.Fatal(err)
	}
	if _, err := d.RunAt(p, 1297); err != nil {
		t.Fatal(err)
	}
	launches := o.Metrics().Counter("gpusim_kernel_launches_total", obs.L("device", d.Spec().Name))
	if got := launches.Value(); got != 2 {
		t.Fatalf("launch counter = %d, want 2", got)
	}

	dvfs := o.Metrics().Counter("gpusim_dvfs_transitions_total", obs.L("device", d.Spec().Name))
	fmax := d.Spec().FMaxMHz()
	if err := d.SetCoreFreqMHz(fmax); err != nil {
		t.Fatal(err)
	}
	if err := d.SetCoreFreqMHz(fmax); err != nil { // no-op re-set: not a transition
		t.Fatal(err)
	}
	d.ResetCoreFreq()
	d.ResetCoreFreq() // already at baseline: not a transition
	if got := dvfs.Value(); got != 2 {
		t.Fatalf("dvfs counter = %d, want 2 (set + reset)", got)
	}
}

func TestForkSharesObserverHandles(t *testing.T) {
	// A fork counts on the parent's handles through Absorb: its launches
	// reach the parent's counter when the parent absorbs it, and not
	// before, so a fork that is thrown away counts nothing.
	o := obs.NewObserver()
	d := mustNew(t, V100Spec(), 1)
	d.SetObserver(o)
	p := computeBound()
	child := d.Fork()
	if _, err := child.Run(p); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(p); err != nil {
		t.Fatal(err)
	}
	launches := o.Metrics().Counter("gpusim_kernel_launches_total", obs.L("device", d.Spec().Name))
	if got := launches.Value(); got != 1 {
		t.Fatalf("an unabsorbed fork's launch reached the parent's counter: got %d, want 1", got)
	}
	d.Absorb(child)
	if got := launches.Value(); got != 2 {
		t.Fatalf("absorbed fork's launch missing from the parent's counter: got %d, want 2", got)
	}
}

func TestCacheCountersAreUnstableTier(t *testing.T) {
	o := obs.NewObserver()
	d := mustNew(t, V100Spec(), 1)
	d.SetObserver(o)
	p := computeBound()
	d.AnalyzeAt(p, 1297) // miss
	d.AnalyzeAt(p, 1297) // hit
	var det bytes.Buffer
	if err := o.WriteMetricsText(&det); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(det.String(), "analytic_cache") {
		t.Fatalf("cache counters must not appear in the deterministic export:\n%s", det.String())
	}
	var prof bytes.Buffer
	if err := o.WriteProfileText(&prof); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"gpusim_analytic_cache_hits_total{device=NVIDIA V100} 1",
		"gpusim_analytic_cache_misses_total{device=NVIDIA V100} 1",
	} {
		if !strings.Contains(prof.String(), want) {
			t.Fatalf("profile dump missing %q:\n%s", want, prof.String())
		}
	}
}

func TestObserverDoesNotPerturbResults(t *testing.T) {
	// The core determinism contract at the device level: identical seeds
	// with and without an observer produce bit-identical observations.
	plain := mustNew(t, V100Spec(), 9)
	observed := mustNew(t, V100Spec(), 9)
	observed.SetObserver(obs.NewObserver())
	p := memoryBound()
	for i := 0; i < 5; i++ {
		a, err := plain.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := observed.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("rep %d: observed run diverged: %+v vs %+v", i, a, b)
		}
	}
}
