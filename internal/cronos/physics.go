package cronos

import "math"

// Gamma is the adiabatic index of the ideal gas (monatomic, 5/3), the value
// used by Cronos' astrophysical setups.
const Gamma = 5.0 / 3.0

// floorRho and floorP guard against unphysical states produced by truncation
// error in near-vacuum regions.
const (
	floorRho = 1e-10
	floorP   = 1e-12
)

// prim holds the primitive-variable view of one cell: density, velocity,
// gas pressure and magnetic field.
type prim struct {
	rho        float64
	vx, vy, vz float64
	p          float64
	bx, by, bz float64
}

// cons holds the conserved variables of one cell.
type cons struct {
	rho        float64
	mx, my, mz float64
	en         float64
	bx, by, bz float64
}

// toPrim converts conserved to primitive variables with positivity floors.
func toPrim(c cons) prim {
	rho := c.rho
	if rho < floorRho {
		rho = floorRho
	}
	vx, vy, vz := c.mx/rho, c.my/rho, c.mz/rho
	kin := 0.5 * rho * (vx*vx + vy*vy + vz*vz)
	mag := 0.5 * (c.bx*c.bx + c.by*c.by + c.bz*c.bz)
	p := (Gamma - 1) * (c.en - kin - mag)
	if p < floorP {
		p = floorP
	}
	return prim{rho: rho, vx: vx, vy: vy, vz: vz, p: p, bx: c.bx, by: c.by, bz: c.bz}
}

// toCons converts primitive to conserved variables. The hot paths pass the
// state by pointer to avoid copying the 64-byte struct per call.
func toCons(w *prim) cons {
	kin := 0.5 * w.rho * (w.vx*w.vx + w.vy*w.vy + w.vz*w.vz)
	mag := 0.5 * (w.bx*w.bx + w.by*w.by + w.bz*w.bz)
	return cons{
		rho: w.rho,
		mx:  w.rho * w.vx, my: w.rho * w.vy, mz: w.rho * w.vz,
		en: w.p/(Gamma-1) + kin + mag,
		bx: w.bx, by: w.by, bz: w.bz,
	}
}

// fastSpeed returns the fast magnetosonic speed along direction dir (0=x,
// 1=y, 2=z) for primitive state w — the signal speed entering both the HLL
// flux and the CFL condition.
func fastSpeed(w *prim, dir int) float64 {
	a2 := Gamma * w.p / w.rho
	b2 := (w.bx*w.bx + w.by*w.by + w.bz*w.bz) / w.rho
	var bd float64
	switch dir {
	case 0:
		bd = w.bx
	case 1:
		bd = w.by
	default:
		bd = w.bz
	}
	bd2 := bd * bd / w.rho
	s := a2 + b2
	disc := s*s - 4*a2*bd2
	if disc < 0 {
		disc = 0
	}
	return math.Sqrt(0.5 * (s + math.Sqrt(disc)))
}

// fastSpeed3 returns the fast magnetosonic speed along all three directions
// at once, sharing the sound-speed and Alfvén terms that fastSpeed recomputes
// per call. Every per-direction operation keeps fastSpeed's order, so each
// component is bit-identical to the corresponding fastSpeed(w, dir) —
// verified by TestFastSpeed3MatchesFastSpeed.
func fastSpeed3(w *prim) (cfx, cfy, cfz float64) {
	a2 := Gamma * w.p / w.rho
	b2 := (w.bx*w.bx + w.by*w.by + w.bz*w.bz) / w.rho
	s := a2 + b2
	f := func(bd float64) float64 {
		bd2 := bd * bd / w.rho
		disc := s*s - 4*a2*bd2
		if disc < 0 {
			disc = 0
		}
		return math.Sqrt(0.5 * (s + math.Sqrt(disc)))
	}
	return f(w.bx), f(w.by), f(w.bz)
}

// physFluxCons is physFlux with the conserved view of w supplied by the
// caller, so hll converts each side exactly once and shares the result with
// its intermediate-state term. The per-direction cases are the fully
// unrolled form of the reference's d-loops (`f[IMx+d] = m[d]*vn - b[d]*bn`
// then `f[IMx+dir] += ptot`, mirrored for the induction terms) with every
// arithmetic expression kept in the reference order.
func physFluxCons(w *prim, c *cons, dir int, f *[NVars]float64) {
	ptot := w.p + 0.5*(w.bx*w.bx+w.by*w.by+w.bz*w.bz)
	vDotB := w.vx*w.bx + w.vy*w.by + w.vz*w.bz

	switch dir {
	case 0:
		vn, bn := w.vx, w.bx
		f[IRho] = c.rho * vn
		f[IMx] = c.mx*vn - w.bx*bn + ptot
		f[IMy] = c.my*vn - w.by*bn
		f[IMz] = c.mz*vn - w.bz*bn
		f[IEn] = (c.en+ptot)*vn - bn*vDotB
		f[IBx] = 0 // normal field is advected by the constrained update
		f[IBy] = w.by*vn - w.vy*bn
		f[IBz] = w.bz*vn - w.vz*bn
	case 1:
		vn, bn := w.vy, w.by
		f[IRho] = c.rho * vn
		f[IMx] = c.mx*vn - w.bx*bn
		f[IMy] = c.my*vn - w.by*bn + ptot
		f[IMz] = c.mz*vn - w.bz*bn
		f[IEn] = (c.en+ptot)*vn - bn*vDotB
		f[IBx] = w.bx*vn - w.vx*bn
		f[IBy] = 0
		f[IBz] = w.bz*vn - w.vz*bn
	default:
		vn, bn := w.vz, w.bz
		f[IRho] = c.rho * vn
		f[IMx] = c.mx*vn - w.bx*bn
		f[IMy] = c.my*vn - w.by*bn
		f[IMz] = c.mz*vn - w.bz*bn + ptot
		f[IEn] = (c.en+ptot)*vn - bn*vDotB
		f[IBx] = w.bx*vn - w.vx*bn
		f[IBy] = w.by*vn - w.vy*bn
		f[IBz] = 0
	}
}

// hllInto writes the HLL flux between left and right states along dir into
// *out. The intermediate state is written out component-by-component in the
// conserved-variable order of the reference's consArray loop, with the
// wave-speed product hoisted — multiplication associativity in the
// reference expression (`sl*sr*(ur[v]-ul[v])`) already grouped it as
// (sl·sr)·diff, so the hoist is a pure CSE and the bits are unchanged.
func hllInto(l, r *prim, dir int, out *[NVars]float64) {
	cl := fastSpeed(l, dir)
	cr := fastSpeed(r, dir)
	var vl, vr float64
	switch dir {
	case 0:
		vl, vr = l.vx, r.vx
	case 1:
		vl, vr = l.vy, r.vy
	default:
		vl, vr = l.vz, r.vz
	}
	sl := math.Min(vl-cl, vr-cr)
	sr := math.Max(vl+cl, vr+cr)

	ucl := toCons(l)
	physFluxCons(l, &ucl, dir, out)
	if sl >= 0 {
		return
	}
	fl := *out
	ucr := toCons(r)
	physFluxCons(r, &ucr, dir, out)
	if sr <= 0 {
		return
	}
	fr := *out
	inv := 1 / (sr - sl)
	ss := sl * sr
	out[IRho] = (sr*fl[IRho] - sl*fr[IRho] + ss*(ucr.rho-ucl.rho)) * inv
	out[IMx] = (sr*fl[IMx] - sl*fr[IMx] + ss*(ucr.mx-ucl.mx)) * inv
	out[IMy] = (sr*fl[IMy] - sl*fr[IMy] + ss*(ucr.my-ucl.my)) * inv
	out[IMz] = (sr*fl[IMz] - sl*fr[IMz] + ss*(ucr.mz-ucl.mz)) * inv
	out[IEn] = (sr*fl[IEn] - sl*fr[IEn] + ss*(ucr.en-ucl.en)) * inv
	out[IBx] = (sr*fl[IBx] - sl*fr[IBx] + ss*(ucr.bx-ucl.bx)) * inv
	out[IBy] = (sr*fl[IBy] - sl*fr[IBy] + ss*(ucr.by-ucl.by)) * inv
	out[IBz] = (sr*fl[IBz] - sl*fr[IBz] + ss*(ucr.bz-ucl.bz)) * inv
}

func consArray(c cons) [NVars]float64 {
	return [NVars]float64{c.rho, c.mx, c.my, c.mz, c.en, c.bx, c.by, c.bz}
}

// minmod is the default slope limiter of the MUSCL reconstruction: the most
// dissipative TVD choice, maximally robust at shocks.
func minmod(a, b float64) float64 {
	if a*b <= 0 {
		return 0
	}
	if math.Abs(a) < math.Abs(b) {
		return a
	}
	return b
}

// vanLeer is the harmonic-mean limiter: less dissipative than minmod on
// smooth flow while remaining TVD — the trade-off Cronos exposes through its
// reconstruction options.
func vanLeer(a, b float64) float64 {
	if a*b <= 0 {
		return 0
	}
	return 2 * a * b / (a + b)
}

// Limiter selects the MUSCL slope limiter.
type Limiter int

const (
	// LimiterMinmod is the robust default.
	LimiterMinmod Limiter = iota
	// LimiterVanLeer is sharper on smooth solutions.
	LimiterVanLeer
)

// limiterFunc returns the slope function for the selection.
func (l Limiter) limiterFunc() func(a, b float64) float64 {
	if l == LimiterVanLeer {
		return vanLeer
	}
	return minmod
}
