package ml

import (
	"fmt"
	"math"
)

// Lasso is L1-regularized linear regression trained by cyclic coordinate
// descent on standardized features (the scikit-learn formulation:
// minimize ‖y − Xw − b‖² / (2n) + α‖w‖₁).
//
// The solver uses the covariance-update form of coordinate descent: the Gram
// matrix XᵀX and correlations Xᵀy are precomputed once, after which every
// coordinate update costs O(d) instead of O(n). Zeroed coordinates are
// skipped under a certificate that proves their update would be exactly
// zero, so the sweeps concentrate on the active set without changing a
// single bit of the trajectory (locked by TestLassoActiveSetMatchesDense).
type Lasso struct {
	// Alpha is the L1 penalty weight.
	Alpha float64
	// MaxIter bounds the coordinate-descent sweeps.
	MaxIter int
	// Tol is the convergence threshold on the max coefficient change.
	Tol float64

	Coef      []float64
	Intercept float64

	mean, scale []float64

	// denseSweeps disables the active-set certificates so every sweep
	// evaluates every coordinate — the reference schedule the certificates
	// must match bit-for-bit. Tests only.
	denseSweeps bool
}

// NewLasso returns a Lasso model with penalty alpha and scikit-learn-like
// defaults (1000 sweeps, 1e-6 tolerance).
func NewLasso(alpha float64) *Lasso {
	return &Lasso{Alpha: alpha, MaxIter: 1000, Tol: 1e-6}
}

// Fit implements Regressor.
func (l *Lasso) Fit(X [][]float64, y []float64) error {
	n, d, err := checkXY(X, y)
	if err != nil {
		return err
	}
	if !(l.Alpha >= 0) {
		return fmt.Errorf("ml: lasso alpha must be non-negative, got %g", l.Alpha)
	}

	// Standardize features into one flat column-major backing slice (column j
	// is xc[j*n : (j+1)*n]) and center the target. Column layout makes every
	// Gram entry below a streaming dot product over contiguous memory.
	l.mean, l.scale = columnStats(X, n, d)
	xc := make([]float64, d*n)
	for j := 0; j < d; j++ {
		m, s := l.mean[j], l.scale[j]
		col := xc[j*n : j*n+n]
		for i := 0; i < n; i++ {
			col[i] = (X[i][j] - m) / s
		}
	}
	var ymean float64
	for _, v := range y {
		ymean += v
	}
	ymean /= float64(n)
	yc := make([]float64, n)
	for i, v := range y {
		yc[i] = v - ymean
	}

	// Covariance precompute: G = XᵀX (d×d, symmetric) and xty = Xᵀ(y − ȳ),
	// each entry one pipelined dot over two contiguous columns. Every
	// coordinate update below then reads one d-length Gram row instead of an
	// n-length column.
	G := make([]float64, d*d)
	xty := make([]float64, d)
	for j := 0; j < d; j++ {
		colj := xc[j*n : j*n+n]
		xty[j] = dotUnrolled(colj, yc)
		for l2 := j; l2 < d; l2++ {
			v := dotUnrolled(colj, xc[l2*n:l2*n+n])
			G[j*d+l2] = v
			G[l2*d+j] = v
		}
	}

	w := make([]float64, d)

	// Column norms: with standardized features Σx² = n.
	colSq := float64(n)
	thresh := l.Alpha * float64(n)

	// Active-set certificates. A coordinate at zero whose correlation rho
	// has slack margin[j] = thresh − |rho| > 0 cannot activate while the
	// total |Δw| mass since certification stays under margin/max|G row|:
	// |Δrho_j| ≤ max_l|G_jl| · Σ|Δw_l|. Skipped updates are therefore
	// provably exact no-ops, and the sweep trajectory matches the dense
	// schedule bit-for-bit.
	margin := make([]float64, d)
	certTot := make([]float64, d)
	gmax := make([]float64, d)
	for j := 0; j < d; j++ {
		margin[j] = -1
		var g float64
		for _, v := range G[j*d : j*d+d] {
			if av := math.Abs(v); av > g {
				g = av
			}
		}
		gmax[j] = g
	}
	var totAbs float64

	for it := 0; it < l.MaxIter; it++ {
		var maxDelta float64
		for j := 0; j < d; j++ {
			if margin[j] >= 0 {
				drift := gmax[j] * (totAbs - certTot[j])
				if drift+drift*1e-9 <= margin[j] {
					continue // certified: the update is provably zero
				}
				margin[j] = -1
			}
			// rho = x_jᵀ r + w_j Σx² = xty_j − Σ_l G_jl w_l + w_j Σx².
			gRow := G[j*d : j*d+d]
			var dot float64
			for l2, wl := range w {
				dot += gRow[l2] * wl
			}
			rho := xty[j] - dot + w[j]*colSq
			newW := softThreshold(rho, thresh) / colSq
			delta := newW - w[j]
			if delta == 0 {
				if newW == 0 && !l.denseSweeps {
					if m := thresh - math.Abs(rho); m > 0 {
						margin[j] = m
						certTot[j] = totAbs
					}
				}
				continue
			}
			w[j] = newW
			totAbs += math.Abs(delta)
			if ad := math.Abs(delta); ad > maxDelta {
				maxDelta = ad
			}
		}
		if maxDelta < l.Tol {
			break
		}
	}

	// Translate back to the original feature scale.
	l.Coef = make([]float64, d)
	l.Intercept = ymean
	for j := 0; j < d; j++ {
		l.Coef[j] = w[j] / l.scale[j]
		l.Intercept -= l.Coef[j] * l.mean[j]
	}
	return nil
}

// Predict implements Regressor.
func (l *Lasso) Predict(x []float64) float64 {
	s := l.Intercept
	for j, c := range l.Coef {
		if j < len(x) {
			s += c * x[j]
		}
	}
	return s
}

// dotUnrolled computes a·b with four independent partial sums, folded in a
// fixed order — deterministic, and pipelined enough to stream two columns at
// close to load bandwidth.
func dotUnrolled(a, b []float64) float64 {
	n := len(a)
	b = b[:n]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+3 < n; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < n; i++ {
		s0 += a[i] * b[i]
	}
	return ((s0 + s1) + s2) + s3
}

// softThreshold is the proximal operator of the L1 norm.
func softThreshold(z, t float64) float64 {
	switch {
	case z > t:
		return z - t
	case z < -t:
		return z + t
	default:
		return 0
	}
}
