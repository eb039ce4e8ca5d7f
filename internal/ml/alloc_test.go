package ml

import (
	"fmt"
	"testing"
)

// TestSolverFitAllocationGuard pins the allocation counts of the Lasso and
// SVR fits. Both solvers front-load their allocations — flat feature
// buffers, the Gram/kernel matrix, the coefficient and prediction vectors —
// and the sweep loops themselves must run allocation-free, so the per-fit
// count is a small constant independent of the iteration count. A per-sweep
// or per-update allocation sneaking into a hot loop multiplies by MaxIter·n
// and trips the bound at once.
func TestSolverFitAllocationGuard(t *testing.T) {
	X, y := benchDataWide(300, 8)

	t.Run("lasso", func(t *testing.T) {
		m := NewLasso(0.01)
		avg := testing.AllocsPerRun(3, func() {
			if err := m.Fit(X, y); err != nil {
				t.Fatal(err)
			}
		})
		if avg > 16 {
			t.Fatalf("Lasso.Fit allocates %.1f objects per fit, want <= 16", avg)
		}
	})

	t.Run("svr", func(t *testing.T) {
		m := NewSVR(10, 0.01, 0)
		avg := testing.AllocsPerRun(3, func() {
			if err := m.Fit(X, y); err != nil {
				t.Fatal(err)
			}
		})
		if avg > 8 {
			t.Fatalf("SVR.Fit allocates %.1f objects per fit, want <= 8", avg)
		}
	})
}

// TestSVRFitAllocs pins SVR.Fit to the same handful of allocations at any
// size: the column statistics, the standardized rows, the kernel, β and f.
// None of them may grow into one object per coordinate update.
func TestSVRFitAllocs(t *testing.T) {
	for _, n := range []int{60, 300} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			X, y := benchData(n)
			m := NewSVR(10, 0.01, 0)
			avg := testing.AllocsPerRun(3, func() {
				if err := m.Fit(X, y); err != nil {
					t.Fatal(err)
				}
			})
			if avg > 8 {
				t.Fatalf("SVR.Fit allocates %.1f objects per fit at n=%d, want <= 8", avg, n)
			}
		})
	}
}
