// Package cronos implements a three-dimensional finite-volume solver for the
// equations of ideal magnetohydrodynamics, reproducing the structure of the
// Cronos code the paper characterizes (Kissmann et al., ApJS 236:53):
//
//	while currentTime <= endTime:
//	    for substep in 0..2:
//	        cflBuf, changeBuf = computeChanges(grid)   // 13-point stencil
//	        cfl = reduce(cflBuf, max)                  // parallel reduction
//	        grid = integrateTime(grid, changeBuf, substep)
//	        grid = applyBoundary(grid)
//	    timeDelta = adjustTimestepDelta(timeDelta, cfl)
//
// The solver uses MUSCL reconstruction with a minmod limiter and HLL fluxes,
// which needs two neighbour cells per direction — the 13-point stencil the
// paper describes — and a three-stage strong-stability-preserving Runge-Kutta
// integrator, matching Algorithm 1's three substeps. computeChanges and
// integrateTime are parallelized over contiguous slabs on the solver's
// parallel.Gang, whose workers live from NewSolver to Close; each slab
// writes its CFL/flux partial result to its own slot and the slots are
// folded in slab order after the join, so the max-reduction is
// deterministic for every worker count. The sweeps themselves run over a
// structure-of-arrays primitive mirror in cache-blocked pencil tiles (see
// sweep.go).
package cronos

import "fmt"

// NVars is the number of conserved variables per cell: density, three
// momentum components, total energy, and three magnetic field components.
const NVars = 8

// Conserved variable indices.
const (
	IRho = iota // mass density
	IMx         // x momentum
	IMy         // y momentum
	IMz         // z momentum
	IEn         // total energy density
	IBx         // magnetic field x
	IBy         // magnetic field y
	IBz         // magnetic field z
)

// Ghost is the halo width required by the 13-point stencil (two upwind and
// two downwind cells per direction).
const Ghost = 2

// Grid holds the conserved state on a regular Cartesian mesh with ghost
// layers, stored as structure-of-arrays for stencil-friendly access.
type Grid struct {
	NX, NY, NZ int     // interior cells per dimension
	DX, DY, DZ float64 // cell sizes
	// U[v][idx] is conserved variable v at flattened cell idx, ghosts
	// included; use Idx for addressing.
	U [NVars][]float64

	sx, sy, sz int // strides including ghosts
}

// NewGrid allocates a grid of nx×ny×nz interior cells spanning a unit-length
// domain in x (dy, dz scale with the aspect ratio of the cell counts).
func NewGrid(nx, ny, nz int) (*Grid, error) {
	if nx < 1 || ny < 1 || nz < 1 {
		return nil, fmt.Errorf("cronos: grid dimensions must be positive, got %dx%dx%d", nx, ny, nz)
	}
	g := &Grid{
		NX: nx, NY: ny, NZ: nz,
		DX: 1.0 / float64(nx), DY: 1.0 / float64(nx), DZ: 1.0 / float64(nx),
		sx: nx + 2*Ghost, sy: ny + 2*Ghost, sz: nz + 2*Ghost,
	}
	n := g.sx * g.sy * g.sz
	for v := 0; v < NVars; v++ {
		g.U[v] = make([]float64, n)
	}
	return g, nil
}

// Idx flattens interior coordinates (i,j,k) in [0,NX)×[0,NY)×[0,NZ) —
// ghost cells are addressed with negative or ≥N coordinates.
func (g *Grid) Idx(i, j, k int) int {
	return ((k+Ghost)*g.sy+(j+Ghost))*g.sx + (i + Ghost)
}

// At returns conserved variable v at interior coordinates (i,j,k).
func (g *Grid) At(v, i, j, k int) float64 { return g.U[v][g.Idx(i, j, k)] }

// Clone returns a deep copy of the grid (used by the RK stages).
func (g *Grid) Clone() *Grid {
	c := &Grid{NX: g.NX, NY: g.NY, NZ: g.NZ, DX: g.DX, DY: g.DY, DZ: g.DZ,
		sx: g.sx, sy: g.sy, sz: g.sz}
	for v := 0; v < NVars; v++ {
		c.U[v] = make([]float64, len(g.U[v]))
		copy(c.U[v], g.U[v])
	}
	return c
}

// CopyFrom copies o's state into g. The grids must have identical shape.
func (g *Grid) CopyFrom(o *Grid) {
	for v := 0; v < NVars; v++ {
		copy(g.U[v], o.U[v])
	}
}

// TotalMass integrates density over the interior (a conservation invariant
// under periodic boundaries).
func (g *Grid) TotalMass() float64 { return g.interiorSum(g.U[IRho]) * g.DX * g.DY * g.DZ }

// interiorSum sums one field u laid out on g's mesh over the interior cells,
// row by row.
func (g *Grid) interiorSum(u []float64) float64 {
	var sum float64
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			row := g.Idx(0, j, k)
			for i := 0; i < g.NX; i++ {
				sum += u[row+i]
			}
		}
	}
	return sum
}

// Boundary selects the boundary condition applied by ApplyBoundary.
type Boundary int

const (
	// Periodic wraps the domain in every direction.
	Periodic Boundary = iota
	// Outflow copies the outermost interior cell into the ghost layers
	// (zero-gradient).
	Outflow
)

// ApplyBoundary fills the ghost layers. Following Algorithm 1 it touches only
// the outermost surfaces of the grid, one variable at a time.
func (g *Grid) ApplyBoundary(b Boundary) {
	for v := 0; v < NVars; v++ {
		g.fillGhosts(g.U[v], b)
	}
}

// fillGhosts fills the ghost layers of one field u laid out on g's mesh.
func (g *Grid) fillGhosts(u []float64, b Boundary) {
	// X direction.
	for k := -Ghost; k < g.NZ+Ghost; k++ {
		for j := -Ghost; j < g.NY+Ghost; j++ {
			for l := 1; l <= Ghost; l++ {
				var lo, hi float64
				switch b {
				case Periodic:
					lo = u[g.Idx(g.NX-l, j, k)]
					hi = u[g.Idx(l-1, j, k)]
				default:
					lo = u[g.Idx(0, j, k)]
					hi = u[g.Idx(g.NX-1, j, k)]
				}
				u[g.Idx(-l, j, k)] = lo
				u[g.Idx(g.NX+l-1, j, k)] = hi
			}
		}
	}
	// Y direction.
	for k := -Ghost; k < g.NZ+Ghost; k++ {
		for i := -Ghost; i < g.NX+Ghost; i++ {
			for l := 1; l <= Ghost; l++ {
				var lo, hi float64
				switch b {
				case Periodic:
					lo = u[g.Idx(i, g.NY-l, k)]
					hi = u[g.Idx(i, l-1, k)]
				default:
					lo = u[g.Idx(i, 0, k)]
					hi = u[g.Idx(i, g.NY-1, k)]
				}
				u[g.Idx(i, -l, k)] = lo
				u[g.Idx(i, g.NY+l-1, k)] = hi
			}
		}
	}
	// Z direction.
	for j := -Ghost; j < g.NY+Ghost; j++ {
		for i := -Ghost; i < g.NX+Ghost; i++ {
			for l := 1; l <= Ghost; l++ {
				var lo, hi float64
				switch b {
				case Periodic:
					lo = u[g.Idx(i, j, g.NZ-l)]
					hi = u[g.Idx(i, j, l-1)]
				default:
					lo = u[g.Idx(i, j, 0)]
					hi = u[g.Idx(i, j, g.NZ-1)]
				}
				u[g.Idx(i, j, -l)] = lo
				u[g.Idx(i, j, g.NZ+l-1)] = hi
			}
		}
	}
}
