package ligen

import (
	"fmt"
	"math"

	"dsenergy/internal/xrand"
)

// Pocket is the docking target: a protein binding site represented — as in
// grid-based docking codes — by a precomputed affinity field sampled on a
// regular 3-D grid, plus an electrostatic potential field for the scoring
// phase. Positive affinity marks favourable placement; positions outside the
// pocket are strongly penalized.
type Pocket struct {
	N       int       // grid points per dimension
	Extent  float64   // half-width of the cubic domain, Å
	Center  Vec3      // pocket center in world coordinates
	Aff     []float64 // affinity field, length N³
	Elec    []float64 // electrostatic potential field, length N³
	spacing float64
}

// DefaultPocketN is the default grid resolution, sized so the pocket fields
// occupy about 2 MiB — comparable to a real receptor grid and small enough
// to be cache resident on the simulated devices.
const DefaultPocketN = 48

// GenPocket builds a deterministic synthetic pocket from rng: a handful of
// Gaussian attraction wells (hydrogen-bond acceptors, hydrophobic patches)
// inside a repulsive shell, plus a smooth electrostatic field.
func GenPocket(rng *xrand.Rand, n int, extent float64) (*Pocket, error) {
	if n < 4 {
		return nil, fmt.Errorf("ligen: pocket grid too small: %d", n)
	}
	if extent <= 0 {
		return nil, fmt.Errorf("ligen: pocket extent must be positive: %g", extent)
	}
	p := &Pocket{
		N: n, Extent: extent,
		Aff:     make([]float64, n*n*n),
		Elec:    make([]float64, n*n*n),
		spacing: 2 * extent / float64(n-1),
	}

	// Attraction wells.
	type well struct {
		c     Vec3
		depth float64
		width float64
	}
	wells := make([]well, 0, 6)
	for w := 0; w < 6; w++ {
		wells = append(wells, well{
			c: Vec3{
				(rng.Float64() - 0.5) * extent,
				(rng.Float64() - 0.5) * extent,
				(rng.Float64() - 0.5) * extent,
			},
			depth: 1 + 2*rng.Float64(),
			width: 2 + 2*rng.Float64(),
		})
	}

	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				pos := Vec3{
					-extent + float64(i)*p.spacing,
					-extent + float64(j)*p.spacing,
					-extent + float64(k)*p.spacing,
				}
				var aff, elec float64
				for _, w := range wells {
					d2 := pos.Sub(w.c).Dot(pos.Sub(w.c))
					aff += w.depth * math.Exp(-d2/(w.width*w.width))
					elec += w.depth * 0.3 * math.Exp(-d2/(2*w.width*w.width))
				}
				// Repulsive shell toward the pocket wall.
				r := pos.Norm() / extent
				if r > 0.8 {
					aff -= 10 * (r - 0.8) * (r - 0.8) * 25
				}
				idx := (k*n+j)*n + i
				p.Aff[idx] = aff
				p.Elec[idx] = elec
			}
		}
	}
	return p, nil
}

// sample trilinearly interpolates field at world position pos; positions
// outside the grid return a large penalty (ligand left the pocket).
func (p *Pocket) sample(field []float64, pos Vec3) float64 {
	local := pos.Sub(p.Center)
	fx := (local[0] + p.Extent) / p.spacing
	fy := (local[1] + p.Extent) / p.spacing
	fz := (local[2] + p.Extent) / p.spacing
	x0, y0, z0 := int(math.Floor(fx)), int(math.Floor(fy)), int(math.Floor(fz))
	if x0 < 0 || y0 < 0 || z0 < 0 || x0 >= p.N-1 || y0 >= p.N-1 || z0 >= p.N-1 {
		return -50
	}
	tx, ty, tz := fx-float64(x0), fy-float64(y0), fz-float64(z0)
	at := func(i, j, k int) float64 { return field[(k*p.N+j)*p.N+i] }
	c00 := at(x0, y0, z0)*(1-tx) + at(x0+1, y0, z0)*tx
	c10 := at(x0, y0+1, z0)*(1-tx) + at(x0+1, y0+1, z0)*tx
	c01 := at(x0, y0, z0+1)*(1-tx) + at(x0+1, y0, z0+1)*tx
	c11 := at(x0, y0+1, z0+1)*(1-tx) + at(x0+1, y0+1, z0+1)*tx
	c0 := c00*(1-ty) + c10*ty
	c1 := c01*(1-ty) + c11*ty
	return c0*(1-tz) + c1*tz
}

// Affinity returns the interpolated placement affinity at pos.
func (p *Pocket) Affinity(pos Vec3) float64 { return p.sample(p.Aff, pos) }

// Potential returns the interpolated electrostatic potential at pos.
func (p *Pocket) Potential(pos Vec3) float64 { return p.sample(p.Elec, pos) }
