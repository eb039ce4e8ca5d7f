package cronos

import (
	"math"
	"testing"
	"testing/quick"

	"dsenergy/internal/xrand"
)

func almostEqual(a, b, tol float64) bool {
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= tol*m
}

// reconstruct extrapolates the primitive state of the middle cell to its
// face (side=+1 right face, side=-1 left face) with limited slopes. It is
// the reference form of the slope-shared faceStates pair that the tests
// below pin the reconstruction behaviour against.
func reconstruct(lo, mid, hi prim, side float64, lim func(a, b float64) float64) prim {
	h := 0.5 * side
	w := prim{
		rho: mid.rho + h*lim(mid.rho-lo.rho, hi.rho-mid.rho),
		vx:  mid.vx + h*lim(mid.vx-lo.vx, hi.vx-mid.vx),
		vy:  mid.vy + h*lim(mid.vy-lo.vy, hi.vy-mid.vy),
		vz:  mid.vz + h*lim(mid.vz-lo.vz, hi.vz-mid.vz),
		p:   mid.p + h*lim(mid.p-lo.p, hi.p-mid.p),
		bx:  mid.bx + h*lim(mid.bx-lo.bx, hi.bx-mid.bx),
		by:  mid.by + h*lim(mid.by-lo.by, hi.by-mid.by),
		bz:  mid.bz + h*lim(mid.bz-lo.bz, hi.bz-mid.bz),
	}
	if w.rho < floorRho {
		w.rho = floorRho
	}
	if w.p < floorP {
		w.p = floorP
	}
	return w
}

// randomPhysicalPrim draws a physically admissible primitive state.
func randomPhysicalPrim(rng *xrand.Rand) prim {
	return prim{
		rho: 0.1 + 10*rng.Float64(),
		vx:  2 * (rng.Float64() - 0.5),
		vy:  2 * (rng.Float64() - 0.5),
		vz:  2 * (rng.Float64() - 0.5),
		p:   0.01 + 5*rng.Float64(),
		bx:  2 * (rng.Float64() - 0.5),
		by:  2 * (rng.Float64() - 0.5),
		bz:  2 * (rng.Float64() - 0.5),
	}
}

func TestPrimConsRoundTrip(t *testing.T) {
	rng := xrand.New(1)
	for n := 0; n < 1000; n++ {
		w := randomPhysicalPrim(rng)
		got := toPrim(toCons(&w))
		for name, pair := range map[string][2]float64{
			"rho": {w.rho, got.rho}, "vx": {w.vx, got.vx}, "vy": {w.vy, got.vy},
			"vz": {w.vz, got.vz}, "p": {w.p, got.p},
			"bx": {w.bx, got.bx}, "by": {w.by, got.by}, "bz": {w.bz, got.bz},
		} {
			if !almostEqual(pair[0], pair[1], 1e-12) {
				t.Fatalf("round trip %s: want %g got %g (state %+v)", name, pair[0], pair[1], w)
			}
		}
	}
}

func TestToPrimAppliesFloors(t *testing.T) {
	// Negative density and internal energy must be floored, not propagated.
	w := toPrim(cons{rho: -1, en: -5})
	if w.rho < floorRho {
		t.Errorf("density floor not applied: %g", w.rho)
	}
	if w.p < floorP {
		t.Errorf("pressure floor not applied: %g", w.p)
	}
}

func TestFastSpeedExceedsSoundAndAlfven(t *testing.T) {
	rng := xrand.New(2)
	for n := 0; n < 500; n++ {
		w := randomPhysicalPrim(rng)
		a := math.Sqrt(Gamma * w.p / w.rho)
		for dir := 0; dir < 3; dir++ {
			cf := fastSpeed(&w, dir)
			if cf+1e-12 < a {
				t.Fatalf("fast speed %g below sound speed %g (dir %d, %+v)", cf, a, dir, w)
			}
			bd := [3]float64{w.bx, w.by, w.bz}[dir]
			ca := math.Abs(bd) / math.Sqrt(w.rho)
			if cf+1e-9 < ca {
				t.Fatalf("fast speed %g below Alfvén speed %g (dir %d)", cf, ca, dir)
			}
		}
	}
}

func TestFastSpeedHydroLimit(t *testing.T) {
	// With no magnetic field the fast speed must reduce to the sound speed.
	w := prim{rho: 2, p: 3}
	want := math.Sqrt(Gamma * w.p / w.rho)
	for dir := 0; dir < 3; dir++ {
		if got := fastSpeed(&w, dir); !almostEqual(got, want, 1e-12) {
			t.Errorf("dir %d: fast speed %g, want sound speed %g", dir, got, want)
		}
	}
}

func TestHLLConsistency(t *testing.T) {
	// The HLL flux of identical left/right states must equal the physical
	// flux — the consistency condition of any approximate Riemann solver.
	rng := xrand.New(3)
	for n := 0; n < 500; n++ {
		w := randomPhysicalPrim(rng)
		for dir := 0; dir < 3; dir++ {
			got := hll(&w, &w, dir)
			want := physFlux(w, dir)
			for v := 0; v < NVars; v++ {
				if !almostEqual(got[v], want[v], 1e-10) {
					t.Fatalf("hll(w,w) dir %d var %d: got %g want %g", dir, v, got[v], want[v])
				}
			}
		}
	}
}

func TestHLLSupersonicUpwinding(t *testing.T) {
	// A strongly right-moving flow must take the left flux exactly.
	l := prim{rho: 1, vx: 50, p: 1, bx: 0.1}
	r := prim{rho: 2, vx: 50, p: 2, bx: 0.1}
	got := hll(&l, &r, 0)
	want := physFlux(l, 0)
	for v := 0; v < NVars; v++ {
		if !almostEqual(got[v], want[v], 1e-12) {
			t.Fatalf("supersonic upwinding var %d: got %g want %g", v, got[v], want[v])
		}
	}
}

func TestMinmodProperties(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		m := minmod(a, b)
		// Zero on sign disagreement.
		if a*b <= 0 && m != 0 {
			return false
		}
		// Magnitude bounded by both arguments.
		if math.Abs(m) > math.Abs(a)+1e-300 || math.Abs(m) > math.Abs(b)+1e-300 {
			return false
		}
		// Symmetry.
		return minmod(a, b) == minmod(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestReconstructPreservesConstantState(t *testing.T) {
	w := prim{rho: 1.5, vx: 0.3, vy: -0.2, vz: 0.1, p: 0.8, bx: 0.4, by: -0.3, bz: 0.2}
	for _, side := range []float64{+1, -1} {
		got := reconstruct(w, w, w, side, minmod)
		if got != w {
			t.Errorf("constant-state reconstruction changed the state: %+v -> %+v", w, got)
		}
	}
}

func TestPhysFluxMassComponent(t *testing.T) {
	// The mass flux along dir is rho·v_dir by definition.
	rng := xrand.New(4)
	for n := 0; n < 200; n++ {
		w := randomPhysicalPrim(rng)
		for dir := 0; dir < 3; dir++ {
			f := physFlux(w, dir)
			want := w.rho * velAlong(w, dir)
			if !almostEqual(f[IRho], want, 1e-12) {
				t.Fatalf("mass flux dir %d: got %g want %g", dir, f[IRho], want)
			}
			if f[IBx+dir] != 0 {
				t.Fatalf("normal field flux dir %d nonzero: %g", dir, f[IBx+dir])
			}
		}
	}
}

func TestFastSpeed3MatchesFastSpeed(t *testing.T) {
	// fastSpeed3 shares the sound/Alfvén subterms across directions; each
	// component must still be bit-identical to the per-direction fastSpeed.
	rng := xrand.New(5)
	for n := 0; n < 500; n++ {
		w := randomPhysicalPrim(rng)
		cfx, cfy, cfz := fastSpeed3(&w)
		for dir, got := range [3]float64{cfx, cfy, cfz} {
			if want := fastSpeed(&w, dir); got != want {
				t.Fatalf("fastSpeed3 dir %d: got %x want %x", dir, got, want)
			}
		}
	}
}

func TestFaceStatesMatchReconstruct(t *testing.T) {
	// The slope-shared face-state pair must reproduce the reference per-face
	// reconstruction bit-for-bit, for both limiters.
	rng := xrand.New(6)
	for _, lim := range []func(a, b float64) float64{minmod, vanLeer} {
		for n := 0; n < 500; n++ {
			lo := randomPhysicalPrim(rng)
			mid := randomPhysicalPrim(rng)
			hi := randomPhysicalPrim(rng)
			var plus, minus prim
			faceStates(&lo, &mid, &hi, &plus, &minus, lim)
			if want := reconstruct(lo, mid, hi, +1, lim); plus != want {
				t.Fatalf("plus state differs from reconstruct(+1): %+v vs %+v", plus, want)
			}
			if want := reconstruct(lo, mid, hi, -1, lim); minus != want {
				t.Fatalf("minus state differs from reconstruct(-1): %+v vs %+v", minus, want)
			}
			var mp, mm prim
			faceStatesMinmod(&lo, &mid, &hi, &mp, &mm)
			if want := reconstruct(lo, mid, hi, +1, minmod); mp != want {
				t.Fatalf("minmod plus state differs from reconstruct(+1)")
			}
			if want := reconstruct(lo, mid, hi, -1, minmod); mm != want {
				t.Fatalf("minmod minus state differs from reconstruct(-1)")
			}
		}
	}
}

// velAlong returns the velocity component of w along dir.
func velAlong(w prim, dir int) float64 {
	switch dir {
	case 0:
		return w.vx
	case 1:
		return w.vy
	default:
		return w.vz
	}
}

// physFlux computes the ideal-MHD flux vector of state w along direction dir.
func physFlux(w prim, dir int) [NVars]float64 {
	c := toCons(&w)
	var f [NVars]float64
	physFluxCons(&w, &c, dir, &f)
	return f
}

// hll computes the HLL approximate Riemann flux between left and right
// states along dir. It is the test-facing wrapper over hllInto, which the
// sweeps call to write each face flux in place.
func hll(l, r *prim, dir int) [NVars]float64 {
	var f [NVars]float64
	hllInto(l, r, dir, &f)
	return f
}
