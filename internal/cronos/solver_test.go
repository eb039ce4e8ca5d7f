package cronos

import (
	"math"
	"testing"
)

func newTestSolver(t *testing.T, nx, ny, nz, workers int) *Solver {
	t.Helper()
	s, err := NewSolver(Config{NX: nx, NY: ny, NZ: nz, Boundary: Periodic, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestUniformStateIsSteady(t *testing.T) {
	s := newTestSolver(t, 12, 8, 6, 2)
	InitUniform(s.Grid, 1.3, 0.7, [3]float64{0.3, -0.2, 0.1})
	before := s.Grid.Clone()
	if err := s.Run(0.05, 10); err != nil {
		t.Fatal(err)
	}
	if s.StepsRun == 0 {
		t.Fatal("solver took no steps")
	}
	for v := 0; v < NVars; v++ {
		for k := 0; k < s.Grid.NZ; k++ {
			for j := 0; j < s.Grid.NY; j++ {
				for i := 0; i < s.Grid.NX; i++ {
					got := s.Grid.At(v, i, j, k)
					want := before.At(v, i, j, k)
					if !almostEqual(got, want, 1e-11) {
						t.Fatalf("uniform state drifted: var %d cell (%d,%d,%d): %g -> %g",
							v, i, j, k, want, got)
					}
				}
			}
		}
	}
}

func TestBlastWaveConservation(t *testing.T) {
	s := newTestSolver(t, 16, 16, 16, 4)
	InitBlastWave(s.Grid, 0.1, 10, 0.2)
	s.Grid.ApplyBoundary(Periodic)
	mass0 := s.Grid.TotalMass()
	en0 := s.Grid.TotalEnergy()
	if err := s.Run(0.02, 20); err != nil {
		t.Fatal(err)
	}
	if s.StepsRun < 2 {
		t.Fatalf("expected multiple steps, ran %d", s.StepsRun)
	}
	// Finite-volume update with periodic boundaries conserves mass and
	// total energy to round-off.
	if m := s.Grid.TotalMass(); !almostEqual(m, mass0, 1e-10) {
		t.Errorf("mass not conserved: %g -> %g", mass0, m)
	}
	if e := s.Grid.TotalEnergy(); !almostEqual(e, en0, 1e-10) {
		t.Errorf("energy not conserved: %g -> %g", en0, e)
	}
}

func TestBlastWaveDevelopsFlow(t *testing.T) {
	s := newTestSolver(t, 16, 16, 16, 2)
	InitBlastWave(s.Grid, 0.1, 10, 0.2)
	if err := s.Run(0.05, 30); err != nil {
		t.Fatal(err)
	}
	var maxMom float64
	for k := 0; k < 16; k++ {
		for j := 0; j < 16; j++ {
			for i := 0; i < 16; i++ {
				m := math.Abs(s.Grid.At(IMx, i, j, k))
				if m > maxMom {
					maxMom = m
				}
			}
		}
	}
	if maxMom < 1e-3 {
		t.Errorf("blast wave produced no outflow momentum (max |mx| = %g)", maxMom)
	}
}

func TestBlastWaveMirrorSymmetry(t *testing.T) {
	// The blast is centered, the field lies in the x-y plane, so the
	// density must stay mirror-symmetric in z.
	s := newTestSolver(t, 8, 8, 8, 3)
	InitBlastWave(s.Grid, 0.1, 10, 0.25)
	if err := s.Run(0.03, 12); err != nil {
		t.Fatal(err)
	}
	n := s.Grid.NZ
	for k := 0; k < n/2; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				a := s.Grid.At(IRho, i, j, k)
				b := s.Grid.At(IRho, i, j, n-1-k)
				if !almostEqual(a, b, 1e-8) {
					t.Fatalf("z-mirror symmetry broken at (%d,%d,%d): %g vs %g", i, j, k, a, b)
				}
			}
		}
	}
}

func TestAlfvenWaveStable(t *testing.T) {
	s := newTestSolver(t, 32, 4, 4, 2)
	InitAlfvenWave(s.Grid, 0.1)
	mass0 := s.Grid.TotalMass()
	if err := s.Run(0.3, 200); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(s.Grid.TotalMass(), mass0, 1e-10) {
		t.Errorf("Alfvén wave run lost mass")
	}
	// The transverse field must survive (dissipation < 100%): the wave is
	// smooth and the scheme second order.
	var byAmp float64
	for i := 0; i < 32; i++ {
		byAmp = math.Max(byAmp, math.Abs(s.Grid.At(IBy, i, 1, 1)))
	}
	if byAmp < 0.02 {
		t.Errorf("Alfvén wave over-damped: max |By| = %g, want > 0.02", byAmp)
	}
}

func TestWorkerCountDoesNotChangeResult(t *testing.T) {
	run := func(workers int) *Grid {
		s := newTestSolver(t, 10, 6, 8, workers)
		InitBlastWave(s.Grid, 0.1, 10, 0.2)
		if err := s.Run(0.02, 8); err != nil {
			t.Fatal(err)
		}
		return s.Grid
	}
	g1 := run(1)
	g8 := run(8)
	for v := 0; v < NVars; v++ {
		for i := range g1.U[v] {
			if g1.U[v][i] != g8.U[v][i] {
				t.Fatalf("var %d idx %d differs between 1 and 8 workers: %g vs %g",
					v, i, g1.U[v][i], g8.U[v][i])
			}
		}
	}
}

func TestTimestepAdjustsToCFL(t *testing.T) {
	s := newTestSolver(t, 8, 8, 8, 2)
	InitBlastWave(s.Grid, 0.1, 10, 0.2)
	s.Grid.ApplyBoundary(Periodic)
	s.Step()
	if s.CFLMax <= 0 {
		t.Fatal("CFL reduction returned non-positive value")
	}
	if s.DT <= 0 {
		t.Fatal("adjusted timestep non-positive")
	}
	// The next dt honours the Courant number against the measured CFL,
	// up to the 10% growth limiter.
	if s.DT > 0.4/s.CFLMax*1.0001 {
		t.Errorf("dt %g violates CFL bound %g", s.DT, 0.4/s.CFLMax)
	}
}

func TestRunStopsAtEndTime(t *testing.T) {
	s := newTestSolver(t, 8, 4, 4, 1)
	InitUniform(s.Grid, 1, 1, [3]float64{0, 0, 0})
	if err := s.Run(0.01, 0); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(s.Time, 0.01, 1e-12) {
		t.Errorf("run overshot end time: %g", s.Time)
	}
}

func TestOutflowBoundaryFillsGhosts(t *testing.T) {
	g, err := NewGrid(4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	InitUniform(g, 2, 1, [3]float64{1, 0, 0})
	g.Set(IRho, 0, 1, 1, 7) // marker at low-x face
	g.ApplyBoundary(Outflow)
	if got := g.U[IRho][g.Idx(-1, 1, 1)]; got != 7 {
		t.Errorf("outflow ghost (-1,1,1) = %g, want copied 7", got)
	}
	if got := g.U[IRho][g.Idx(-2, 1, 1)]; got != 7 {
		t.Errorf("outflow ghost (-2,1,1) = %g, want copied 7", got)
	}
}

func TestPeriodicBoundaryWraps(t *testing.T) {
	g, err := NewGrid(4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	InitUniform(g, 1, 1, [3]float64{0, 0, 0})
	g.Set(IRho, 3, 2, 2, 9) // high-x interior cell
	g.ApplyBoundary(Periodic)
	if got := g.U[IRho][g.Idx(-1, 2, 2)]; got != 9 {
		t.Errorf("periodic ghost (-1,2,2) = %g, want wrapped 9", got)
	}
}

func TestNewSolverRejectsBadGrid(t *testing.T) {
	if _, err := NewSolver(Config{NX: 0, NY: 4, NZ: 4}); err == nil {
		t.Error("expected error for zero-sized grid")
	}
}

func TestGridIdxAddressing(t *testing.T) {
	g, err := NewGrid(3, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for k := -Ghost; k < g.NZ+Ghost; k++ {
		for j := -Ghost; j < g.NY+Ghost; j++ {
			for i := -Ghost; i < g.NX+Ghost; i++ {
				idx := g.Idx(i, j, k)
				if idx < 0 || idx >= len(g.U[0]) {
					t.Fatalf("Idx(%d,%d,%d) = %d out of range", i, j, k, idx)
				}
				if seen[idx] {
					t.Fatalf("Idx(%d,%d,%d) = %d collides", i, j, k, idx)
				}
				seen[idx] = true
			}
		}
	}
	if len(seen) != len(g.U[0]) {
		t.Errorf("addressing covered %d of %d slots", len(seen), len(g.U[0]))
	}
}
