package cronos

import "math"

// Diagnostics for validating and inspecting solver state. The scheme is a
// cell-centered finite-volume method without constrained transport, so ∇·B
// is not maintained at machine zero; MaxDivB exposes the discrete divergence
// so tests and users can verify it stays bounded on the timescales simulated
// here (the production Cronos code uses a constrained-transport variant for
// long-horizon runs).

// MaxDivB returns the largest absolute central-difference divergence of the
// magnetic field over the interior.
func (g *Grid) MaxDivB() float64 {
	var max float64
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				div := (g.At(IBx, i+1, j, k)-g.At(IBx, i-1, j, k))/(2*g.DX) +
					(g.At(IBy, i, j+1, k)-g.At(IBy, i, j-1, k))/(2*g.DY) +
					(g.At(IBz, i, j, k+1)-g.At(IBz, i, j, k-1))/(2*g.DZ)
				if a := math.Abs(div); a > max {
					max = a
				}
			}
		}
	}
	return max
}

// KineticEnergy integrates ½ρv² over the interior.
func (g *Grid) KineticEnergy() float64 {
	var sum float64
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			row := g.Idx(0, j, k)
			for i := 0; i < g.NX; i++ {
				rho := g.U[IRho][row+i]
				if rho <= 0 {
					continue
				}
				mx, my, mz := g.U[IMx][row+i], g.U[IMy][row+i], g.U[IMz][row+i]
				sum += 0.5 * (mx*mx + my*my + mz*mz) / rho
			}
		}
	}
	return sum * g.DX * g.DY * g.DZ
}

// MagneticEnergy integrates ½B² over the interior.
func (g *Grid) MagneticEnergy() float64 {
	var sum float64
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			row := g.Idx(0, j, k)
			for i := 0; i < g.NX; i++ {
				bx, by, bz := g.U[IBx][row+i], g.U[IBy][row+i], g.U[IBz][row+i]
				sum += 0.5 * (bx*bx + by*by + bz*bz)
			}
		}
	}
	return sum * g.DX * g.DY * g.DZ
}

// IsFinite reports whether every interior value of every variable is finite
// — the cheap sanity check long runs assert between checkpoints.
func (g *Grid) IsFinite() bool {
	for v := 0; v < NVars; v++ {
		for k := 0; k < g.NZ; k++ {
			for j := 0; j < g.NY; j++ {
				row := g.Idx(0, j, k)
				for i := 0; i < g.NX; i++ {
					x := g.U[v][row+i]
					if math.IsNaN(x) || math.IsInf(x, 0) {
						return false
					}
				}
			}
		}
	}
	return true
}

// Profile1D extracts conserved variable v along x at the given (j,k) row —
// the standard way to compare shock-tube solutions against references.
func (g *Grid) Profile1D(v, j, k int) []float64 {
	out := make([]float64, g.NX)
	for i := 0; i < g.NX; i++ {
		out[i] = g.At(v, i, j, k)
	}
	return out
}

// Cells returns the number of interior cells.
func (g *Grid) Cells() int { return g.NX * g.NY * g.NZ }

// Set assigns conserved variable v at interior coordinates (i,j,k).
func (g *Grid) Set(v, i, j, k int, val float64) { g.U[v][g.Idx(i, j, k)] = val }

// TotalEnergy integrates total energy density over the interior.
func (g *Grid) TotalEnergy() float64 { return g.interiorSum(g.U[IEn]) * g.DX * g.DY * g.DZ }
