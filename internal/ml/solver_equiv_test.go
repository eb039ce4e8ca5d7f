package ml

import (
	"math"
	"reflect"
	"testing"
)

// referenceSVRBetas is the SVR dual solver spelled out plainly: a dense
// [][]float64 kernel and cyclic sweeps with one scalar f update per kernel
// entry. The production solver's flat row-major kernel and 4-wide axpy must
// reproduce this trajectory bit-for-bit.
func referenceSVRBetas(c, epsilon, gamma float64, maxIter int, tol float64, X [][]float64, y []float64) []float64 {
	n, d := len(X), len(X[0])
	mean := make([]float64, d)
	scale := make([]float64, d)
	for j := 0; j < d; j++ {
		var m float64
		for i := 0; i < n; i++ {
			m += X[i][j]
		}
		m /= float64(n)
		var v float64
		for i := 0; i < n; i++ {
			dv := X[i][j] - m
			v += dv * dv
		}
		s := math.Sqrt(v / float64(n))
		if s == 0 {
			s = 1
		}
		mean[j], scale[j] = m, s
	}
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = make([]float64, d)
		for j := 0; j < d; j++ {
			xs[i][j] = (X[i][j] - mean[j]) / scale[j]
		}
	}
	g := gamma
	if g == 0 {
		g = 1 / float64(d)
	}
	rbf := func(a, b []float64) float64 {
		var d2 float64
		for j := range a {
			dv := a[j] - b[j]
			d2 += dv * dv
		}
		return math.Exp(-g * d2)
	}
	k := make([][]float64, n)
	for i := range k {
		k[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := rbf(xs[i], xs[j]) + 1
			k[i][j], k[j][i] = v, v
		}
	}
	beta := make([]float64, n)
	f := make([]float64, n)
	for it := 0; it < maxIter; it++ {
		var maxDelta float64
		for i := 0; i < n; i++ {
			z := y[i] - f[i] + beta[i]*k[i][i]
			nb := softThreshold(z, epsilon) / k[i][i]
			if nb > c {
				nb = c
			} else if nb < -c {
				nb = -c
			}
			if delta := nb - beta[i]; delta != 0 {
				for j := 0; j < n; j++ {
					f[j] += delta * k[i][j]
				}
				beta[i] = nb
				if ad := math.Abs(delta); ad > maxDelta {
					maxDelta = ad
				}
			}
		}
		if maxDelta < tol {
			break
		}
	}
	return beta
}

// TestSVRMatchesReference locks the production solver to the plain cyclic
// reference: identical dual coefficients, bit for bit, on converging fits,
// MaxIter-bound fits, a zero-width tube, discrete-valued features and box
// constraints tight enough to pin a large fraction of the coordinates at ±C.
func TestSVRMatchesReference(t *testing.T) {
	smoothX, smoothY := benchData(120)
	largeX, largeY := benchData(300)
	wideX, wideY := benchDataWide(250, 8)
	cases := []struct {
		name      string
		c, eps, g float64
		X         [][]float64
		y         []float64
	}{
		{"converging-default", 10, 0.05, 0, smoothX, smoothY},
		{"bench-shape-maxiter", 10, 0.01, 0, largeX, largeY},
		{"tight-box-heavy-pinning", 0.05, 0.01, 0, largeX, largeY},
		{"wide-discrete-freq", 1, 0.02, 0.2, wideX, wideY},
		{"zero-epsilon", 2, 0, 0, smoothX, smoothY},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewSVR(tc.c, tc.eps, tc.g)
			if err := m.Fit(tc.X, tc.y); err != nil {
				t.Fatal(err)
			}
			want := referenceSVRBetas(tc.c, tc.eps, tc.g, m.MaxIter, m.Tol, tc.X, tc.y)
			if len(m.beta) != len(want) {
				t.Fatalf("beta length %d, want %d", len(m.beta), len(want))
			}
			mismatch := 0
			for i := range want {
				if m.beta[i] != want[i] {
					if mismatch < 5 {
						t.Errorf("beta[%d] = %v, reference %v (diff %g)", i, m.beta[i], want[i], m.beta[i]-want[i])
					}
					mismatch++
				}
			}
			if mismatch > 0 {
				t.Fatalf("%d/%d coefficients diverge from the reference trajectory", mismatch, len(want))
			}
		})
	}
}

// TestLassoActiveSetMatchesDense locks the zero-coordinate certificates to
// the dense schedule: with the skipping disabled every sweep evaluates every
// coordinate, and the certified solver must land on exactly the same
// coefficients — a skipped update has to be a provable no-op, not an
// approximation.
func TestLassoActiveSetMatchesDense(t *testing.T) {
	nX, nY := benchData(500)
	wX, wY := benchDataWide(400, 16)
	cases := []struct {
		name  string
		alpha float64
		X     [][]float64
		y     []float64
	}{
		{"narrow-light-penalty", 0.01, nX, nY},
		{"narrow-heavy-penalty", 0.5, nX, nY},
		{"wide-light-penalty", 0.01, wX, wY},
		{"wide-heavy-penalty", 0.3, wX, wY},
		{"zero-alpha", 0, nX, nY},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fast := NewLasso(tc.alpha)
			if err := fast.Fit(tc.X, tc.y); err != nil {
				t.Fatal(err)
			}
			dense := NewLasso(tc.alpha)
			dense.denseSweeps = true
			if err := dense.Fit(tc.X, tc.y); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fast.Coef, dense.Coef) {
				t.Fatalf("active-set coefficients diverge from dense sweeps:\n fast  %v\n dense %v", fast.Coef, dense.Coef)
			}
			if fast.Intercept != dense.Intercept {
				t.Fatalf("intercept %v != dense %v", fast.Intercept, dense.Intercept)
			}
		})
	}
}

// TestSolverFitIsDeterministic refits both regressors on identical inputs
// and requires identical coefficient bits — the solvers are pure functions
// of their inputs, with no schedule- or map-order dependence.
func TestSolverFitIsDeterministic(t *testing.T) {
	X, y := benchDataWide(300, 8)
	a, b := NewSVR(5, 0.02, 0), NewSVR(5, 0.02, 0)
	if err := a.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.beta, b.beta) {
		t.Fatal("svr: repeated fits disagree")
	}
	la, lb := NewLasso(0.05), NewLasso(0.05)
	if err := la.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := lb.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(la.Coef, lb.Coef) || la.Intercept != lb.Intercept {
		t.Fatal("lasso: repeated fits disagree")
	}
}
