package cronos

import "math"

// InitUniform fills the grid with a homogeneous state at rest: density rho,
// pressure p, and a uniform magnetic field b. A uniform state is an exact
// steady solution, which the tests use to verify that fluxes cancel.
func InitUniform(g *Grid, rho, p float64, b [3]float64) {
	w := prim{rho: rho, p: p, bx: b[0], by: b[1], bz: b[2]}
	c := toCons(&w)
	fillAll(g, c)
}

// InitAlfvenWave initializes a travelling circularly polarized Alfvén wave
// along x — a smooth exact solution of ideal MHD used to verify that the
// scheme propagates MHD waves and remains stable.
func InitAlfvenWave(g *Grid, amplitude float64) {
	b0 := 1.0
	rho := 1.0
	va := b0 / math.Sqrt(rho) // Alfvén speed
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				x := (float64(i) + 0.5) * g.DX
				ph := 2 * math.Pi * x
				w := prim{
					rho: rho,
					p:   0.1,
					vx:  0,
					vy:  -amplitude * va * math.Cos(ph),
					vz:  -amplitude * va * math.Sin(ph),
					bx:  b0,
					by:  amplitude * b0 * math.Cos(ph),
					bz:  amplitude * b0 * math.Sin(ph),
				}
				setCell(g, i, j, k, toCons(&w))
			}
		}
	}
}

// InitBrioWu initializes the Brio & Wu (1988) MHD shock tube along x: the
// canonical 1-D validation problem whose solution develops a fast
// rarefaction, compound wave, contact discontinuity, slow shock and fast
// rarefaction. Use Outflow boundaries and run to t ≈ 0.1 (with the standard
// γ = 2 the reference solution applies; with the solver's γ = 5/3 the wave
// pattern is qualitatively identical).
func InitBrioWu(g *Grid) {
	left := toCons(&prim{rho: 1, p: 1, bx: 0.75, by: 1})
	right := toCons(&prim{rho: 0.125, p: 0.1, bx: 0.75, by: -1})
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				c := left
				if i >= g.NX/2 {
					c = right
				}
				setCell(g, i, j, k, c)
			}
		}
	}
}

// InitOrszagTang initializes the Orszag-Tang vortex in the x-y plane, the
// classic 2-D MHD turbulence benchmark: smooth initial vortical flow and
// field that steepen into interacting shocks. Periodic boundaries.
func InitOrszagTang(g *Grid) {
	b0 := 1.0 / math.Sqrt(4*math.Pi)
	lx := float64(g.NX) * g.DX
	ly := float64(g.NY) * g.DY
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			y := (float64(j) + 0.5) * g.DY
			for i := 0; i < g.NX; i++ {
				x := (float64(i) + 0.5) * g.DX
				w := prim{
					rho: Gamma * Gamma / (4 * math.Pi),
					p:   Gamma / (4 * math.Pi),
					vx:  -math.Sin(2 * math.Pi * y / ly),
					vy:  math.Sin(2 * math.Pi * x / lx),
					bx:  -b0 * math.Sin(2*math.Pi*y/ly),
					by:  b0 * math.Sin(4*math.Pi*x/lx),
				}
				setCell(g, i, j, k, toCons(&w))
			}
		}
	}
}

func fillAll(g *Grid, c cons) {
	arr := consArray(c)
	for v := 0; v < NVars; v++ {
		u := g.U[v]
		for i := range u {
			u[i] = arr[v]
		}
	}
}
