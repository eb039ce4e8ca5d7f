package cronos

import (
	"math"
	"testing"
)

// AdvectionLaw is linear advection with velocity V — the canonical smoke
// test (exact solution: translation).
type AdvectionLaw struct {
	V [3]float64
}

// Flux implements ScalarLaw.
func (l AdvectionLaw) Flux(u float64, dir int) float64 { return l.V[dir] * u }

// MaxSpeed implements ScalarLaw.
func (l AdvectionLaw) MaxSpeed(_ float64, dir int) float64 { return math.Abs(l.V[dir]) }

func TestAdvectionTranslatesProfile(t *testing.T) {
	s, err := NewScalarSolver(AdvectionLaw{V: [3]float64{1, 0, 0}}, 64, 4, 4, Periodic)
	if err != nil {
		t.Fatal(err)
	}
	s.Init(func(x, _, _ float64) float64 { return math.Sin(2 * math.Pi * x) })
	// After one period (t=1) the profile returns to its start.
	if err := s.Run(1.0, 0); err != nil {
		t.Fatal(err)
	}
	var l1 float64
	for i := 0; i < 64; i++ {
		x := (float64(i) + 0.5) * s.DX
		l1 += math.Abs(s.At(i, 1, 1) - math.Sin(2*math.Pi*x))
	}
	l1 /= 64
	if l1 > 0.05 {
		t.Errorf("advection L1 error after one period %g, want < 0.05", l1)
	}
}

func TestAdvectionConservation(t *testing.T) {
	s, err := NewScalarSolver(AdvectionLaw{V: [3]float64{0.7, 0.3, -0.2}}, 16, 16, 16, Periodic)
	if err != nil {
		t.Fatal(err)
	}
	s.Init(func(x, y, z float64) float64 { return 1 + 0.3*math.Sin(2*math.Pi*x)*math.Cos(2*math.Pi*y) })
	total0 := s.Total()
	if err := s.Run(0.2, 0); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(s.Total(), total0, 1e-11) {
		t.Errorf("conserved quantity drifted: %g -> %g", total0, s.Total())
	}
}

func TestBurgersFormsShock(t *testing.T) {
	s, err := NewScalarSolver(BurgersLaw{}, 128, 1, 1, Periodic)
	if err != nil {
		t.Fatal(err)
	}
	s.Init(func(x, _, _ float64) float64 { return 1 + 0.5*math.Sin(2*math.Pi*x) })
	// Smooth data steepens; run past the shock-formation time ~1/π.
	if err := s.Run(0.5, 0); err != nil {
		t.Fatal(err)
	}
	// The solution must stay bounded by its initial range (maximum
	// principle for scalar laws) and develop a steep gradient.
	maxGrad := 0.0
	for i := 0; i < 128; i++ {
		u := s.At(i, 0, 0)
		if u < 0.5-1e-6 || u > 1.5+1e-6 {
			t.Fatalf("maximum principle violated: u=%g at %d", u, i)
		}
		next := s.At((i+1)%128, 0, 0)
		if g := math.Abs(next-u) / s.DX; g > maxGrad {
			maxGrad = g
		}
	}
	if maxGrad < 10 {
		t.Errorf("no shock formed: max gradient %g", maxGrad)
	}
}

func TestBurgersShockSpeed(t *testing.T) {
	// Riemann problem uL=1, uR=0: the shock travels at (uL+uR)/2 = 0.5.
	s, err := NewScalarSolver(BurgersLaw{}, 128, 1, 1, Outflow)
	if err != nil {
		t.Fatal(err)
	}
	s.Init(func(x, _, _ float64) float64 {
		if x < 0.25 {
			return 1
		}
		return 0
	})
	endTime := 0.5
	if err := s.Run(endTime, 0); err != nil {
		t.Fatal(err)
	}
	// Find the shock location (u crosses 0.5).
	shockX := -1.0
	for i := 0; i < 127; i++ {
		if s.At(i, 0, 0) >= 0.5 && s.At(i+1, 0, 0) < 0.5 {
			shockX = (float64(i) + 1.0) * s.DX
			break
		}
	}
	want := 0.25 + 0.5*endTime
	if shockX < 0 || math.Abs(shockX-want) > 0.05 {
		t.Errorf("shock at x=%g, want ~%g", shockX, want)
	}
}

func TestScalarSolverDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) []float64 {
		s, err := NewScalarSolver(AdvectionLaw{V: [3]float64{0.5, 0.5, 0.5}}, 12, 12, 12, Periodic)
		if err != nil {
			t.Fatal(err)
		}
		s.Workers = workers
		s.Init(func(x, y, z float64) float64 { return math.Sin(2 * math.Pi * (x + y + z)) })
		if err := s.Run(0.05, 0); err != nil {
			t.Fatal(err)
		}
		return append([]float64(nil), s.u...)
	}
	a, b := run(1), run(8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("scalar state differs between 1 and 8 workers at %d", i)
		}
	}
}

func TestScalarSolverValidation(t *testing.T) {
	if _, err := NewScalarSolver(nil, 8, 8, 8, Periodic); err == nil {
		t.Error("expected error for nil law")
	}
	if _, err := NewScalarSolver(BurgersLaw{}, 0, 8, 8, Periodic); err == nil {
		t.Error("expected error for zero dimension")
	}
}

// rotatedAdvection is a user-defined law exercising the public interface:
// advection along a diagonal with direction-dependent flux.
type rotatedAdvection struct{}

func (rotatedAdvection) Flux(u float64, dir int) float64 {
	v := [3]float64{0.4, -0.3, 0.2}
	return v[dir] * u
}
func (rotatedAdvection) MaxSpeed(_ float64, dir int) float64 {
	v := [3]float64{0.4, 0.3, 0.2}
	return v[dir]
}

func TestUserProvidedLaw(t *testing.T) {
	s, err := NewScalarSolver(rotatedAdvection{}, 12, 12, 12, Periodic)
	if err != nil {
		t.Fatal(err)
	}
	s.Init(func(x, y, z float64) float64 { return math.Cos(2 * math.Pi * x) })
	total0 := s.Total()
	if err := s.Run(0.1, 0); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(s.Total(), total0, 1e-11) {
		t.Errorf("user law not conservative: %g -> %g", total0, s.Total())
	}
	if s.StepsRun == 0 {
		t.Error("no steps taken")
	}
}

// Total integrates the conserved quantity over the interior.
func (s *ScalarSolver) Total() float64 { return s.mesh.interiorSum(s.u) * s.DX * s.DY * s.DZ }
