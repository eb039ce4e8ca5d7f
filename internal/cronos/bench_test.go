package cronos

import "testing"

// Step-benchmark grid for the MHD solver hot path. Two problem sizes bracket
// the cache behaviour of the 13-point stencil:
//
//   - small  (32×32×32):  one z-plane of SoA state fits comfortably on chip,
//     so the sweep is compute-bound;
//   - medium (64×64×64):  a z-plane spills the last-level cache on small
//     parts, which is where pencil tiling earns its keep.
//
// Each size runs serial (Workers=1, the per-core engine) and parallel
// (Workers=0 → GOMAXPROCS, the slab fan-out). To compare a stencil change,
// run `go test -bench SolverStep -run '^$' ./internal/cronos` before and
// after it on the same machine.
func benchSolverStep(b *testing.B, nx, ny, nz, workers int) {
	b.Helper()
	s, err := NewSolver(Config{NX: nx, NY: ny, NZ: nz, Boundary: Periodic, Workers: workers})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	InitBlastWave(s.Grid, 0.1, 10, 0.2)
	s.Grid.ApplyBoundary(Periodic)
	s.Step() // warm up workspaces so steady-state allocations are measured
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
	cellsPerStep := float64(s.Grid.Cells() * 3) // 3 RK substeps
	b.ReportMetric(cellsPerStep*float64(b.N)/b.Elapsed().Seconds(), "cell-updates/s")
}

func BenchmarkSolverStepSmallSerial(b *testing.B)    { benchSolverStep(b, 32, 32, 32, 1) }
func BenchmarkSolverStepSmallParallel(b *testing.B)  { benchSolverStep(b, 32, 32, 32, 0) }
func BenchmarkSolverStepMediumSerial(b *testing.B)   { benchSolverStep(b, 64, 64, 64, 1) }
func BenchmarkSolverStepMediumParallel(b *testing.B) { benchSolverStep(b, 64, 64, 64, 0) }

func BenchmarkWorkloadProfiles(b *testing.B) {
	w, err := NewWorkload(160, 64, 64, 20)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		_ = w.Profiles()
	}
}
