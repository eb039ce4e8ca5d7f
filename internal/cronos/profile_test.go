package cronos

import (
	"testing"

	"dsenergy/internal/gpusim"
	"dsenergy/internal/synergy"
)

func TestFluxEvalCrossCheck(t *testing.T) {
	// The analytic workload profile assumes the solver performs
	// ExpectedFluxEvalsPerStep HLL evaluations per timestep; verify against
	// the instrumented reference solver.
	s := newTestSolver(t, 10, 6, 8, 3)
	InitBlastWave(s.Grid, 0.1, 10, 0.2)
	s.Grid.ApplyBoundary(Periodic)
	steps := 4
	for i := 0; i < steps; i++ {
		s.Step()
	}
	w, err := NewWorkload(10, 6, 8, steps)
	if err != nil {
		t.Fatal(err)
	}
	want := w.ExpectedFluxEvalsPerStep() * int64(steps)
	if s.FluxEvals != want {
		t.Errorf("instrumented flux evals %d, analytic expectation %d", s.FluxEvals, want)
	}
}

func TestWorkloadValidation(t *testing.T) {
	if _, err := NewWorkload(0, 4, 4, 1); err == nil {
		t.Error("expected error for zero dimension")
	}
	if _, err := NewWorkload(4, 4, 4, 0); err == nil {
		t.Error("expected error for zero steps")
	}
}

func TestWorkloadProfilesValid(t *testing.T) {
	w, err := NewWorkload(20, 8, 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	ps := w.Profiles()
	if len(ps) != 4 {
		t.Fatalf("want 4 kernels per Algorithm 1, got %d", len(ps))
	}
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			t.Errorf("kernel %s: %v", p.Name, err)
		}
		if p.Launches != float64(3*10) {
			t.Errorf("kernel %s: launches %g, want 30 (3 substeps x 10 steps)", p.Name, p.Launches)
		}
	}
}

func TestWorkloadMemoryBoundAtLargeGrid(t *testing.T) {
	// The paper's central Cronos observation (Figures 4-5): at large grids
	// the stencil is memory bound, so raising the clock above the default
	// buys almost nothing while lowering it saves energy.
	dev := mustV100(t)
	w, _ := NewWorkload(160, 64, 64, 4)
	def := dev.Spec().BaselineFreqMHz()
	fmax := dev.Spec().FMaxMHz()

	tDef, eDef := w.AnalyticOn(dev, def)
	tMax, eMax := w.AnalyticOn(dev, fmax)
	speedup := tDef / tMax
	if speedup > 1.05 {
		t.Errorf("large grid should be memory bound: speedup at fmax = %.3f, want <= 1.05", speedup)
	}
	if eMax <= eDef {
		t.Errorf("up-clocking a memory-bound kernel should cost energy: %g -> %g J", eDef, eMax)
	}

	// Down-clocking to ~60%% of default must save noticeable energy at
	// small speedup loss.
	low := dev.Spec().NearestFreqMHz(def * 6 / 10)
	tLow, eLow := w.AnalyticOn(dev, low)
	if loss := tLow/tDef - 1; loss > 0.10 {
		t.Errorf("down-clock speedup loss %.1f%%, want <= 10%%", loss*100)
	}
	if saving := 1 - eLow/eDef; saving < 0.08 {
		t.Errorf("down-clock energy saving %.1f%%, want >= 8%%", saving*100)
	}
}

func TestWorkloadSmallGridLaunchBound(t *testing.T) {
	// Small grids (10x4x4) are dominated by launch overhead: the frequency
	// sensitivity of runtime is weak in both directions (Figure 4a).
	dev := mustV100(t)
	w, _ := NewWorkload(10, 4, 4, 4)
	def := dev.Spec().BaselineFreqMHz()
	tDef, _ := w.AnalyticOn(dev, def)
	tMax, _ := w.AnalyticOn(dev, dev.Spec().FMaxMHz())
	if sp := tDef / tMax; sp > 1.12 {
		t.Errorf("small grid speedup at fmax = %.3f, want modest (<= 1.12)", sp)
	}
}

func TestWorkloadRunOnQueue(t *testing.T) {
	p, err := synergy.NewPlatform(7, gpusim.V100Spec())
	if err != nil {
		t.Fatal(err)
	}
	q := p.Queues()[0]
	w, _ := NewWorkload(20, 8, 8, 2)
	timeS, energyJ, err := w.RunOn(q)
	if err != nil {
		t.Fatal(err)
	}
	if timeS <= 0 || energyJ <= 0 {
		t.Fatalf("non-positive observation: t=%g e=%g", timeS, energyJ)
	}
	if got := q.EventCount(); got != 4 {
		t.Errorf("want 4 kernel events, got %d", got)
	}
}

// mustV100 builds a V100 device, failing the test on error.
func mustV100(t *testing.T) *gpusim.Device {
	t.Helper()
	d, err := gpusim.New(gpusim.V100Spec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// ExpectedFluxEvalsPerStep returns the HLL flux evaluations the reference
// solver performs per full timestep (three substeps × three directional
// sweeps with one extra face per pencil), used to cross-check the analytic
// per-cell costs against the instrumented solver.
func (w Workload) ExpectedFluxEvalsPerStep() int64 {
	nx, ny, nz := int64(w.NX), int64(w.NY), int64(w.NZ)
	perSubstep := (nx+1)*ny*nz + nx*(ny+1)*nz + nx*ny*(nz+1)
	return 3 * perSubstep
}
