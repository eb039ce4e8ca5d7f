package cronos

import "math"

// InitBlastWave sets up the classic magnetized blast-wave problem: ambient
// gas at (rho, pAmbient) with an over-pressured sphere of radius r in the
// domain center and a uniform oblique field. It is the workload used for the
// paper-style energy characterization runs.
func InitBlastWave(g *Grid, pAmbient, pBlast, r float64) {
	amb := toCons(&prim{rho: 1, p: pAmbient, bx: 1 / math.Sqrt2, by: 1 / math.Sqrt2})
	hot := toCons(&prim{rho: 1, p: pBlast, bx: 1 / math.Sqrt2, by: 1 / math.Sqrt2})
	cx, cy, cz := 0.5, 0.5*float64(g.NY)*g.DY, 0.5*float64(g.NZ)*g.DZ
	for k := 0; k < g.NZ; k++ {
		z := (float64(k) + 0.5) * g.DZ
		for j := 0; j < g.NY; j++ {
			y := (float64(j) + 0.5) * g.DY
			for i := 0; i < g.NX; i++ {
				x := (float64(i) + 0.5) * g.DX
				d := math.Sqrt((x-cx)*(x-cx) + (y-cy)*(y-cy) + (z-cz)*(z-cz))
				c := amb
				if d < r {
					c = hot
				}
				setCell(g, i, j, k, c)
			}
		}
	}
}

func setCell(g *Grid, i, j, k int, c cons) {
	arr := consArray(c)
	idx := g.Idx(i, j, k)
	for v := 0; v < NVars; v++ {
		g.U[v][idx] = arr[v]
	}
}
