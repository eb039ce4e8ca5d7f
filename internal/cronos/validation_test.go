package cronos

import (
	"math"
	"testing"
)

// TestBrioWuShockTube validates the solver against the canonical 1-D MHD
// Riemann problem: the solution must keep the correct far-field states, stay
// monotone outside the wave fan, and develop the characteristic intermediate
// structure (density between the two initial values, transverse field
// reversal smoothed into the fan).
func TestBrioWuShockTube(t *testing.T) {
	s, err := NewSolver(Config{NX: 128, NY: 4, NZ: 4, Boundary: Outflow, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	InitBrioWu(s.Grid)
	if err := s.Run(0.08, 400); err != nil {
		t.Fatal(err)
	}
	if !s.Grid.IsFinite() {
		t.Fatal("non-finite state")
	}

	rho := s.Grid.Profile1D(IRho, 1, 1)
	// Far fields keep the initial states.
	if !almostEqual(rho[2], 1.0, 5e-3) {
		t.Errorf("left far-field density %g, want ~1", rho[2])
	}
	if !almostEqual(rho[len(rho)-3], 0.125, 5e-2) {
		t.Errorf("right far-field density %g, want ~0.125", rho[len(rho)-3])
	}
	// All densities in the physically admissible band between the states
	// (the compound wave stays within [0.125, 1] for this tube).
	for i, r := range rho {
		if r < 0.1 || r > 1.05 {
			t.Fatalf("density %g at cell %d outside admissible band", r, i)
		}
	}
	// A wave fan has developed: density is no longer a step function.
	mid := rho[len(rho)/2]
	if mid > 0.95 || mid < 0.15 {
		t.Errorf("no intermediate structure at the midpoint: rho = %g", mid)
	}
	// The transverse field transitions from +1 to -1 through the fan.
	by := s.Grid.Profile1D(IBy, 1, 1)
	if by[2] < 0.9 || by[len(by)-3] > -0.9 {
		t.Errorf("transverse field far-fields wrong: %g, %g", by[2], by[len(by)-3])
	}
}

// TestOrszagTangVortex validates the 2-D benchmark: the smooth vortex must
// steepen without blowing up, transfer kinetic to magnetic energy, and stay
// conservative under periodic boundaries.
func TestOrszagTangVortex(t *testing.T) {
	s, err := NewSolver(Config{NX: 48, NY: 48, NZ: 1, Boundary: Periodic, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	InitOrszagTang(s.Grid)
	s.Grid.ApplyBoundary(Periodic)
	mass0 := s.Grid.TotalMass()
	en0 := s.Grid.TotalEnergy()
	kin0 := s.Grid.KineticEnergy()

	if err := s.Run(0.2, 400); err != nil {
		t.Fatal(err)
	}
	if !s.Grid.IsFinite() {
		t.Fatal("vortex blew up")
	}
	if !almostEqual(s.Grid.TotalMass(), mass0, 1e-10) {
		t.Errorf("mass drift: %g -> %g", mass0, s.Grid.TotalMass())
	}
	if !almostEqual(s.Grid.TotalEnergy(), en0, 1e-10) {
		t.Errorf("total energy drift: %g -> %g", en0, s.Grid.TotalEnergy())
	}
	// The vortex decays: kinetic energy must drop (shock dissipation).
	if kin := s.Grid.KineticEnergy(); kin >= kin0 {
		t.Errorf("kinetic energy did not decay: %g -> %g", kin0, kin)
	}
}

func TestDivBBoundedOnBlastWave(t *testing.T) {
	s, err := NewSolver(Config{NX: 16, NY: 16, NZ: 16, Boundary: Periodic, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	InitBlastWave(s.Grid, 0.1, 10, 0.2)
	s.Grid.ApplyBoundary(Periodic)
	if div0 := s.Grid.MaxDivB(); div0 > 1e-10 {
		t.Fatalf("initial field not divergence free: %g", div0)
	}
	if err := s.Run(0.03, 20); err != nil {
		t.Fatal(err)
	}
	// Without constrained transport divB grows from truncation error, but
	// it must stay far below the field magnitude on these timescales.
	if div := s.Grid.MaxDivB(); div > 5 {
		t.Errorf("divB grew unreasonably: %g", div)
	}
}

func TestEnergyPartitions(t *testing.T) {
	g, err := NewGrid(8, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	InitUniform(g, 2, 1, [3]float64{0.5, 0, 0})
	// Uniform state at rest: kinetic zero, magnetic = ½B²·V.
	if ke := g.KineticEnergy(); ke != 0 {
		t.Errorf("kinetic energy %g, want 0", ke)
	}
	wantMag := 0.5 * 0.25 * float64(8*8*8) * g.DX * g.DY * g.DZ
	if me := g.MagneticEnergy(); !almostEqual(me, wantMag, 1e-12) {
		t.Errorf("magnetic energy %g, want %g", me, wantMag)
	}
}

func TestIsFiniteDetectsNaN(t *testing.T) {
	g, _ := NewGrid(4, 4, 4)
	InitUniform(g, 1, 1, [3]float64{0, 0, 0})
	if !g.IsFinite() {
		t.Fatal("uniform grid reported non-finite")
	}
	g.Set(IEn, 2, 2, 2, math.NaN())
	if g.IsFinite() {
		t.Error("NaN not detected")
	}
}

func TestProfile1D(t *testing.T) {
	g, _ := NewGrid(5, 3, 3)
	for i := 0; i < 5; i++ {
		g.Set(IRho, i, 1, 1, float64(i))
	}
	p := g.Profile1D(IRho, 1, 1)
	for i, v := range p {
		if v != float64(i) {
			t.Fatalf("profile[%d] = %g", i, v)
		}
	}
}

// alfvenError runs the travelling Alfvén wave on an nx-cell grid to t=0.25
// and returns the L1 error of By against the exact solution (the wave
// returns shifted by va·t with va = 1).
func alfvenError(t *testing.T, nx int) float64 {
	t.Helper()
	s, err := NewSolver(Config{NX: nx, NY: 4, NZ: 4, Boundary: Periodic, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	amp := 0.05
	InitAlfvenWave(s.Grid, amp)
	endTime := 0.25
	if err := s.Run(endTime, 0); err != nil {
		t.Fatal(err)
	}
	va := 1.0 // b0/sqrt(rho) with b0 = rho = 1
	var sum float64
	for i := 0; i < nx; i++ {
		x := (float64(i) + 0.5) * s.Grid.DX
		exact := amp * math.Cos(2*math.Pi*(x-va*endTime))
		sum += math.Abs(s.Grid.At(IBy, i, 1, 1) - exact)
	}
	return sum / float64(nx)
}

// TestAlfvenWaveConvergence verifies grid convergence: halving the cell size
// must shrink the error by a clear factor (the MUSCL/minmod scheme sits
// between first and second order on smooth extrema).
func TestAlfvenWaveConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence study is slow")
	}
	e16 := alfvenError(t, 16)
	e32 := alfvenError(t, 32)
	e64 := alfvenError(t, 64)
	t.Logf("Alfvén L1 errors: N=16 %.3e, N=32 %.3e, N=64 %.3e (ratios %.2f, %.2f)",
		e16, e32, e64, e16/e32, e32/e64)
	if e32 >= e16 || e64 >= e32 {
		t.Fatalf("error not decreasing with resolution: %g, %g, %g", e16, e32, e64)
	}
	if e16/e32 < 1.5 || e32/e64 < 1.5 {
		t.Errorf("convergence rate too low: ratios %.2f, %.2f (want >= 1.5)",
			e16/e32, e32/e64)
	}
}

func TestLimiterProperties(t *testing.T) {
	// Zero on sign disagreement, bounded by 2x the smaller argument (TVD
	// region), symmetric.
	for _, c := range [][2]float64{{1, 2}, {2, 1}, {-1, -3}, {1, -1}, {0, 5}, {3, 3}} {
		v := minmod(c[0], c[1])
		if c[0]*c[1] <= 0 && v != 0 {
			t.Errorf("limiter nonzero on sign change: minmod(%g,%g)=%g", c[0], c[1], v)
		}
		small := math.Min(math.Abs(c[0]), math.Abs(c[1]))
		if math.Abs(v) > 2*small+1e-12 {
			t.Errorf("limiter outside TVD bound: minmod(%g,%g)=%g", c[0], c[1], v)
		}
		if v2 := minmod(c[1], c[0]); v2 != v {
			t.Errorf("limiter not symmetric at (%g,%g)", c[0], c[1])
		}
	}
}
