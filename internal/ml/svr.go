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
//
// The solver shrinks the working set as coordinates pin to the box bounds:
// a coordinate is skipped only while a conservative certificate proves its
// update would be exactly zero, and its prediction value is replayed from a
// chronological update log before it is ever read again, so the trained
// coefficients are bit-identical to the full cyclic sweep for every input —
// converged or MaxIter-bound alike (locked by
// TestSVRShrinkingMatchesReference).
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
	if s.C <= 0 {
		return fmt.Errorf("ml: svr C must be positive, got %g", s.C)
	}
	if s.Epsilon < 0 {
		return fmt.Errorf("ml: svr epsilon must be non-negative, got %g", s.Epsilon)
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

// svrKMax bounds every kernel entry: exp(−γ‖·‖²) ∈ (0, 1] plus the bias fold
// gives K_ij ∈ (1, 2]. The shrinking certificates use it to bound how far a
// skipped coordinate's prediction can have drifted.
const svrKMax = 2.0

// solveDual runs the cyclic coordinate sweeps over the dual with working-set
// shrinking. The executed update sequence — and therefore s.beta — is
// bit-identical to the plain reference sweep:
//
//   - a coordinate is only skipped under a certificate proving its update
//     would be exactly zero: when β_i is pinned at a bound or at zero with
//     slack margin m, the optimality condition cannot flip while the total
//     |Δβ| mass since certification stays below m/K_max;
//   - f_i of a coordinate outside the broadcast set is reconstructed by
//     replaying the missed (index, delta) log entries in chronological
//     order — the exact additions, in the exact order, the eager reference
//     loop would have applied;
//   - the broadcast set shrinks to the uncertified coordinates and their
//     kernel columns are repacked into a compact matrix, so tail sweeps
//     stream |active|² instead of |active|·n kernel entries. The packed
//     entries are copies, and per-slot updates are independent, so the bits
//     cannot change.
//
// Certificates engage in proportion to how much slack the margins carry
// over the update mass still in flight, so heavily regularized or
// converging fits shrink hard while noisy MaxIter-bound fits degrade
// gracefully to the plain sweep — never below it.
func (s *SVR) solveDual(kb, y []float64, n int) {
	beta := s.beta
	f := make([]float64, n)

	// Shrinking state. margin[i] >= 0 certifies that coordinate i's update
	// is zero while svrKMax·(totAbs − certTot[i]) stays under it; inB[i]
	// marks membership in the eager broadcast set; cursor[i] is the log
	// position a non-broadcast coordinate has replayed up to.
	margin := make([]float64, n)
	certTot := make([]float64, n)
	cursor := make([]int, n)
	inB := make([]bool, n)
	for i := range margin {
		margin[i] = -1
		inB[i] = true
	}
	// The update log is append-only for the whole solve: truncating it
	// would force long dependent replay chains through every certified
	// coordinate, and its size is already bounded by MaxIter·n entries of
	// 12 bytes (a fraction of the n² kernel it rides alongside).
	logIdx := make([]int32, 0, 4*n)
	logDelta := make([]float64, 0, 4*n)
	var totAbs float64

	// Packed-kernel state: when packed, kcIdx lists the broadcast set in
	// ascending order, kc holds its compact m×m kernel, and kcPos maps a
	// coordinate to its packed row (−1 when outside).
	var (
		packed    bool
		kc        []float64
		kcIdx     []int32
		kcPos     []int
		pinned    int // certified count at the last repack
		sincePack int // sweeps since the last repack
	)

	replay := func(i int) {
		row := kb[i*n : i*n+n]
		fi := f[i]
		for t := cursor[i]; t < len(logIdx); t++ {
			fi += logDelta[t] * row[logIdx[t]]
		}
		f[i] = fi
		cursor[i] = len(logIdx)
	}

	repack := func(active []int32) {
		m := len(active)
		if kcPos == nil {
			kcPos = make([]int, n)
		}
		for i := range kcPos {
			kcPos[i] = -1
		}
		// Coordinates leaving the broadcast set are current up to now;
		// coordinates (re)joining must catch up before going eager.
		for _, i := range active {
			if !inB[i] {
				replay(int(i))
			}
		}
		for i := 0; i < n; i++ {
			if inB[i] {
				cursor[i] = len(logIdx)
			}
			inB[i] = false
		}
		if cap(kc) < m*m {
			kc = make([]float64, m*m)
		}
		kc = kc[:m*m]
		for p, i := range active {
			rowi := kb[int(i)*n : int(i)*n+n]
			kcRow := kc[p*m : p*m+m]
			for t, j := range active {
				kcRow[t] = rowi[j]
			}
			kcPos[i] = p
			inB[i] = true
		}
		kcIdx = append(kcIdx[:0], active...)
		packed = true
	}

	certSlack := func() float64 { return 1e-9 * (1 + totAbs) }

	// A certificate only pays for itself when it survives many sweeps: an
	// expiry replays the skipped updates as a dependent chain, which costs
	// more per entry than receiving them eagerly. Admit a certificate only
	// when its margin covers several sweeps of drift at the current update
	// mass (sweepMass tracks the Σ|Δβ| of the last completed sweep).
	const certHorizon = 8
	sweepMass := math.Inf(1)

	for it := 0; it < s.MaxIter; it++ {
		var maxDelta float64
		prevTot := totAbs
		promoted := false
		for i := 0; i < n; i++ {
			if margin[i] >= 0 {
				if svrKMax*(totAbs-certTot[i])+certSlack() <= margin[i] {
					continue // certified: the update is provably zero
				}
				margin[i] = -1 // certificate expired: re-evaluate
			}
			if !inB[i] {
				replay(i)
			}
			kii := kb[i*n+i]
			z := y[i] - f[i] + beta[i]*kii
			nb := softThreshold(z, s.Epsilon) / kii
			if nb > s.C {
				nb = s.C
			} else if nb < -s.C {
				nb = -s.C
			}
			delta := nb - beta[i]
			if delta == 0 {
				// Certify the zero update when slack exists: how far z sits
				// from the nearest boundary that would change nb.
				bound := s.C*kii + s.Epsilon
				var m float64
				switch {
				// nb was assigned exactly ±C by the clip (or exactly 0 by the
				// soft threshold), so these equalities are exact by
				// construction — a tolerance would mis-certify interior
				// coordinates.
				//dsalint:ignore floateq
				case nb == s.C:
					m = z - bound
				//dsalint:ignore floateq
				case nb == -s.C:
					m = -bound - z
				case nb == 0:
					m = s.Epsilon - math.Abs(z)
				}
				if m > svrKMax*certHorizon*sweepMass {
					margin[i] = m
					certTot[i] = totAbs
				}
				continue
			}
			// Broadcast the update to the eager set; everyone else picks it
			// up from the log on their next replay (including i itself when
			// it is outside the broadcast set).
			if packed {
				if p := kcPos[i]; p >= 0 {
					mm := len(kcIdx)
					axpyGather(delta, kc[p*mm:p*mm+mm], kcIdx, f)
				} else {
					axpyAt(delta, kb[i*n:i*n+n], kcIdx, f)
					promoted = true
				}
			} else {
				axpy(delta, kb[i*n:i*n+n], f)
			}
			logIdx = append(logIdx, int32(i))
			logDelta = append(logDelta, delta)
			totAbs += math.Abs(delta)
			beta[i] = nb
			if ad := math.Abs(delta); ad > maxDelta {
				maxDelta = ad
			}
		}
		if maxDelta < s.Tol {
			break
		}

		// Repack bookkeeping: count certified coordinates and rebuild the
		// broadcast set when it has drifted from the certificate state —
		// shrunk further (more certificates) or grown (a lazy coordinate
		// updated). The O(m²) rebuild is rate-limited to amortize against
		// the O(updates·m) sweeps between packs.
		sweepMass = totAbs - prevTot
		sincePack++
		cert := 0
		for i := 0; i < n; i++ {
			if margin[i] >= 0 {
				cert++
			}
		}
		needPack := false
		if !packed {
			needPack = cert >= n/8
		} else if sincePack >= 8 {
			needPack = promoted || cert >= pinned+n/32
		}
		if needPack && n-cert > 0 {
			active := make([]int32, 0, n-cert)
			for i := 0; i < n; i++ {
				if margin[i] < 0 {
					active = append(active, int32(i))
				}
			}
			repack(active)
			pinned = cert
			sincePack = 0
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

// axpyGather adds delta·krow[t] into f[idx[t]]: the packed-kernel broadcast,
// where krow is the compact row over the ascending index set idx. Distinct
// indices make the slots independent, so unrolling preserves the bits.
func axpyGather(delta float64, krow []float64, idx []int32, f []float64) {
	m := len(idx)
	krow = krow[:m]
	t := 0
	for ; t+3 < m; t += 4 {
		j0, j1, j2, j3 := idx[t], idx[t+1], idx[t+2], idx[t+3]
		f0 := f[j0] + delta*krow[t]
		f1 := f[j1] + delta*krow[t+1]
		f2 := f[j2] + delta*krow[t+2]
		f3 := f[j3] + delta*krow[t+3]
		f[j0], f[j1], f[j2], f[j3] = f0, f1, f2, f3
	}
	for ; t < m; t++ {
		j := idx[t]
		f[j] += delta * krow[t]
	}
}

// axpyAt adds delta·k[j] into f[j] for each j in idx — the broadcast of a
// coordinate that has no packed row yet, read from its full kernel row.
func axpyAt(delta float64, k []float64, idx []int32, f []float64) {
	for _, j := range idx {
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

// NumSupportVectors returns the count of nonzero dual coefficients.
func (s *SVR) NumSupportVectors() int {
	n := 0
	for _, b := range s.beta {
		if b != 0 {
			n++
		}
	}
	return n
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
