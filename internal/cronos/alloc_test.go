package cronos

import "testing"

// TestStepAllocationGuard pins the steady-state allocation count of the hot
// path. After the first step warms the workspaces, a Step must not allocate
// beyond the fixed per-dispatch overhead of the slab fan-out (the body
// closure each of its 12 Gang.Run dispatches hands the solver's worker
// gang); any per-cell or per-plane allocation creeping into the sweep
// multiplies by the step count and shows up here immediately.
func TestStepAllocationGuard(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int
		max     float64
	}{
		{"serial", 1, 16},
		{"parallel", 0, 32},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSolver(Config{NX: 32, NY: 32, NZ: 32, Boundary: Periodic, Workers: tc.workers})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			InitBlastWave(s.Grid, 0.1, 10, 0.2)
			s.Grid.ApplyBoundary(Periodic)
			s.Step() // warm up workspaces
			avg := testing.AllocsPerRun(3, func() { s.Step() })
			if avg > tc.max {
				t.Fatalf("Step allocates %.1f objects per call, want <= %.0f", avg, tc.max)
			}
		})
	}
}
