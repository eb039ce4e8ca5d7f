package ml

import (
	"fmt"
	"math"
)

// SVR is ε-insensitive support vector regression with an RBF kernel, trained
// by exact cyclic coordinate maximization of the dual in the β = α − α*
// formulation. The bias is folded into the kernel (K + 1), which removes the
// equality constraint and makes each coordinate update a closed-form
// soft-threshold followed by box clipping — the same fixed point SMO reaches.
type SVR struct {
	// C is the box constraint (regularization inverse).
	C float64
	// Epsilon is the insensitive-tube half width.
	Epsilon float64
	// Gamma is the RBF width (0 selects the "scale" heuristic
	// 1/(d·Var(X)) used by scikit-learn).
	Gamma float64
	// MaxIter bounds the coordinate sweeps.
	MaxIter int
	// Tol is the convergence threshold on the max β change.
	Tol float64

	x           [][]float64 // support data (all training rows)
	beta        []float64
	mean, scale []float64
	gamma       float64
}

// NewSVR returns an SVR with the given hyper-parameters and scikit-learn-like
// iteration defaults.
func NewSVR(c, epsilon, gamma float64) *SVR {
	return &SVR{C: c, Epsilon: epsilon, Gamma: gamma, MaxIter: 300, Tol: 1e-5}
}

// Fit implements Regressor.
func (s *SVR) Fit(X [][]float64, y []float64) error {
	n, d, err := checkXY(X, y)
	if err != nil {
		return err
	}
	if !(s.C > 0) {
		return fmt.Errorf("ml: svr C must be positive, got %g", s.C)
	}
	if !(s.Epsilon >= 0) || math.IsInf(s.Epsilon, 1) {
		return fmt.Errorf("ml: svr epsilon must be finite and non-negative, got %g", s.Epsilon)
	}
	if !(s.Gamma >= 0) || math.IsInf(s.Gamma, 1) {
		return fmt.Errorf("ml: svr gamma must be finite and non-negative, got %g", s.Gamma)
	}

	// Standardize features (RBF kernels need comparable scales). The rows
	// share one flat backing array: one allocation instead of n, and the
	// kernel build streams them in order.
	s.mean, s.scale = columnStats(X, n, d)
	xbuf := make([]float64, n*d)
	s.x = make([][]float64, n)
	for i := 0; i < n; i++ {
		s.x[i] = xbuf[i*d : i*d+d]
		for j := 0; j < d; j++ {
			s.x[i][j] = (X[i][j] - s.mean[j]) / s.scale[j]
		}
	}

	s.gamma = s.Gamma
	if s.gamma == 0 {
		// "scale": 1/(d·Var) with standardized features Var ≈ 1.
		s.gamma = 1 / float64(d)
	}

	// Precompute the kernel matrix (with +1 bias fold) into one row-major
	// backing slice: row i is kb[i*n : (i+1)*n], contiguous for the sweep's
	// streaming row reads.
	kb := make([]float64, n*n)
	for i := 0; i < n; i++ {
		xi := s.x[i]
		rowi := kb[i*n : i*n+n]
		for j := 0; j <= i; j++ {
			v := s.rbf(xi, s.x[j]) + 1
			rowi[j] = v
			kb[j*n+i] = v
		}
	}

	s.beta = make([]float64, n)
	s.solveDual(kb, y, n)
	return nil
}

// solveDual runs the cyclic coordinate sweeps over the dual: each coordinate
// in turn takes its closed-form update, which is broadcast to every
// prediction value f_j at once, until a sweep moves no β by Tol or MaxIter
// sweeps have run.
func (s *SVR) solveDual(kb, y []float64, n int) {
	beta := s.beta
	f := make([]float64, n)
	for it := 0; it < s.MaxIter; it++ {
		var maxDelta float64
		for i := 0; i < n; i++ {
			row := kb[i*n : i*n+n]
			z := y[i] - f[i] + beta[i]*row[i]
			nb := softThreshold(z, s.Epsilon) / row[i]
			if nb > s.C {
				nb = s.C
			} else if nb < -s.C {
				nb = -s.C
			}
			delta := nb - beta[i]
			if delta == 0 {
				continue
			}
			axpy(delta, row, f)
			beta[i] = nb
			if ad := math.Abs(delta); ad > maxDelta {
				maxDelta = ad
			}
		}
		if maxDelta < s.Tol {
			break
		}
	}
}

// axpy adds delta·k[j] into f[j] for every j. The slots are independent, so
// the 4-wide unrolling only reorders independent operations: the bits match
// the plain loop exactly.
func axpy(delta float64, k, f []float64) {
	n := len(f)
	k = k[:n]
	j := 0
	for ; j+3 < n; j += 4 {
		f0 := f[j] + delta*k[j]
		f1 := f[j+1] + delta*k[j+1]
		f2 := f[j+2] + delta*k[j+2]
		f3 := f[j+3] + delta*k[j+3]
		f[j], f[j+1], f[j+2], f[j+3] = f0, f1, f2, f3
	}
	for ; j < n; j++ {
		f[j] += delta * k[j]
	}
}

// Predict implements Regressor.
func (s *SVR) Predict(x []float64) float64 {
	if len(s.x) == 0 {
		return 0
	}
	xs := make([]float64, len(s.mean))
	for j := range xs {
		v := 0.0
		if j < len(x) {
			v = x[j]
		}
		xs[j] = (v - s.mean[j]) / s.scale[j]
	}
	var out float64
	for i, b := range s.beta {
		if b == 0 {
			continue
		}
		out += b * (s.rbf(s.x[i], xs) + 1)
	}
	return out
}

// rbf evaluates exp(−γ‖a−b‖²).
func (s *SVR) rbf(a, b []float64) float64 {
	var d2 float64
	for j := range a {
		dv := a[j] - b[j]
		d2 += dv * dv
	}
	return math.Exp(-s.gamma * d2)
}
