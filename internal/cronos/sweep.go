package cronos

import "math"

// This file holds the cache-blocked sweep engine behind computeChanges.
//
// The sweeps consume a flat primitive-variable mirror of the grid (s.prims,
// one prim struct per ghosted cell) that is refreshed once per substep, so
// each cell pays for exactly one toPrim conversion instead of one per sweep
// direction. The X sweep reads its pencils directly out of the mirror — they
// are contiguous there, so there is no gather at all; the Y and Z sweeps
// gather TileWidth strided pencils at a time into a contiguous workspace tile
// (turning the column/stack walks into streaming plane reads), evaluate each
// pencil's fluxes in place, and scatter the flux differences back
// plane-by-plane. Reconstruction is slope-shared: each cell's limited slopes
// are computed once and reused by both adjacent faces, halving the limiter
// work of the per-face reference. Every restructuring preserves the float
// operation order of the reference solver, so results are byte-identical for
// every tile width and worker count (locked by the golden tests in
// solver_golden_test.go).

// refreshPrims converts the full ghosted grid to primitive variables once per
// substep. Each cell is an independent pure conversion, so the plane-slab
// parallelization cannot affect the stored values.
func (s *Solver) refreshPrims(g *Grid) {
	plane := g.sy * g.sx
	pr := s.prims
	s.gang.Run(g.sz, func(_, lo, hi int) {
		for idx := lo * plane; idx < hi*plane; idx++ {
			pr[idx] = toPrim(cons{
				rho: g.U[IRho][idx],
				mx:  g.U[IMx][idx], my: g.U[IMy][idx], mz: g.U[IMz][idx],
				en: g.U[IEn][idx],
				bx: g.U[IBx][idx], by: g.U[IBy][idx], bz: g.U[IBz][idx],
			})
		}
	})
}

// sweepWorkspace holds one worker's reusable tile and face-state buffers,
// sized once in NewSolver so the steady-state step makes no allocations.
type sweepWorkspace struct {
	flux     [][NVars]float64 // single-pencil face fluxes (maxDim+1)
	tile     []prim           // TileWidth gathered pencils, pencil-major
	tileFlux [][NVars]float64 // TileWidth pencils' face fluxes, pencil-major
	plus     []prim           // right-face reconstructed states, per cell
	minus    []prim           // left-face reconstructed states, per cell
}

func newSweepWorkspace(maxDim, tileWidth int) *sweepWorkspace {
	return &sweepWorkspace{
		flux:     make([][NVars]float64, maxDim+1),
		tile:     make([]prim, tileWidth*(maxDim+2*Ghost)),
		tileFlux: make([][NVars]float64, tileWidth*(maxDim+1)),
		plus:     make([]prim, maxDim+2*Ghost),
		minus:    make([]prim, maxDim+2*Ghost),
	}
}

// slabPartial is one slab's contribution to the computeChanges reduction,
// written to the slab's own slot in s.parts and absorbed in slab order.
type slabPartial struct {
	cfl    float64
	fluxes int64
}

// sweepXY computes x- and y-direction flux differences (and the full 3-D CFL
// value) for z-planes [kLo,kHi) using worker-local workspace ws.
func (s *Solver) sweepXY(g *Grid, ws *sweepWorkspace, kLo, kHi int) (cflMax float64, fluxes int64) {
	nx, ny := g.NX, g.NY
	pr := s.prims
	tw := s.cfg.TileWidth
	phx := nx + 2*Ghost // ghosted x-pencil length
	phy := ny + 2*Ghost // ghosted y-pencil length
	fhy := ny + 1       // y-pencil face count

	for k := kLo; k < kHi; k++ {
		// --- X sweep (also accumulates the CFL reduction input). Pencils
		// along x are contiguous in the primitive mirror, so they are read
		// in place with no gather. ---
		for j := 0; j < ny; j++ {
			base := g.Idx(-Ghost, j, k)
			wb := pr[base : base+phx]
			for i := 0; i < nx; i++ {
				w := &wb[i+Ghost]
				cfx, cfy, cfz := fastSpeed3(w)
				c := (math.Abs(w.vx)+cfx)/g.DX +
					(math.Abs(w.vy)+cfy)/g.DY +
					(math.Abs(w.vz)+cfz)/g.DZ
				if c > cflMax {
					cflMax = c
				}
			}
			fluxes += s.pencilFlux(ws, wb, ws.flux, nx, 0)
			inv := 1 / g.DX
			row := g.Idx(0, j, k)
			fl := ws.flux
			for v := 0; v < NVars; v++ {
				ch := s.changes.U[v]
				for i := 0; i < nx; i++ {
					// First write of this substep: `0 - x` (not `-x`)
					// reproduces the reference's zero-then-subtract bits,
					// including the sign of zero.
					ch[row+i] = 0 - (fl[i+1][v]-fl[i][v])*inv
				}
			}
		}

		// --- Y sweep, tiled: gather up to tw strided column-pencils into a
		// contiguous tile plane-by-plane, flux each pencil, scatter back
		// plane-by-plane. ---
		for i0 := 0; i0 < nx; i0 += tw {
			ib := tw
			if i0+ib > nx {
				ib = nx - i0
			}
			tile := ws.tile
			for jj := 0; jj < phy; jj++ {
				src := g.Idx(i0, jj-Ghost, k)
				for t := 0; t < ib; t++ {
					tile[t*phy+jj] = pr[src+t]
				}
			}
			for t := 0; t < ib; t++ {
				fluxes += s.pencilFlux(ws, tile[t*phy:t*phy+phy], ws.tileFlux[t*fhy:t*fhy+fhy], ny, 1)
			}
			inv := 1 / g.DY
			tfl := ws.tileFlux
			for v := 0; v < NVars; v++ {
				ch := s.changes.U[v]
				for jj := 0; jj < ny; jj++ {
					dst := g.Idx(i0, jj, k)
					for t := 0; t < ib; t++ {
						ch[dst+t] -= (tfl[t*fhy+jj+1][v] - tfl[t*fhy+jj][v]) * inv
					}
				}
			}
		}
	}
	return cflMax, fluxes
}

// sweepZ computes z-direction flux differences for y-rows [jLo,jHi) using
// worker-local workspace ws. It contributes no CFL value — the x sweep
// already reduces the full three-direction sum.
func (s *Solver) sweepZ(g *Grid, ws *sweepWorkspace, jLo, jHi int) (fluxes int64) {
	nx, nz := g.NX, g.NZ
	pr := s.prims
	tw := s.cfg.TileWidth
	phz := nz + 2*Ghost
	fhz := nz + 1

	for j := jLo; j < jHi; j++ {
		for i0 := 0; i0 < nx; i0 += tw {
			ib := tw
			if i0+ib > nx {
				ib = nx - i0
			}
			tile := ws.tile
			for kk := 0; kk < phz; kk++ {
				src := g.Idx(i0, j, kk-Ghost)
				for t := 0; t < ib; t++ {
					tile[t*phz+kk] = pr[src+t]
				}
			}
			for t := 0; t < ib; t++ {
				fluxes += s.pencilFlux(ws, tile[t*phz:t*phz+phz], ws.tileFlux[t*fhz:t*fhz+fhz], nz, 2)
			}
			inv := 1 / g.DZ
			tfl := ws.tileFlux
			for v := 0; v < NVars; v++ {
				ch := s.changes.U[v]
				for kk := 0; kk < nz; kk++ {
					dst := g.Idx(i0, j, kk)
					for t := 0; t < ib; t++ {
						ch[dst+t] -= (tfl[t*fhz+kk+1][v] - tfl[t*fhz+kk][v]) * inv
					}
				}
			}
		}
	}
	return fluxes
}

// pencilFlux fills fl[0..n] with MUSCL+HLL face fluxes along dir for a pencil
// of n interior cells whose primitive states (with two ghosts per side) are
// in w. Face f sits between cells f-1 and f. Returns the flux-evaluation
// count.
//
// Reconstruction is slope-shared: the limited slopes of cell c serve both its
// left-face state (minus) and right-face state (plus), so each slope is
// computed once instead of twice as in the per-face reference — with the
// same operands in the same order, the states are bit-identical.
func (s *Solver) pencilFlux(ws *sweepWorkspace, w []prim, fl [][NVars]float64, n, dir int) int64 {
	plus, minus := ws.plus, ws.minus
	for c := 1; c <= n+2; c++ {
		faceStatesMinmod(&w[c-1], &w[c], &w[c+1], &plus[c], &minus[c])
	}
	// The left state of face f is the right-face extrapolation of cell f+1;
	// the right state is the left-face extrapolation of cell f+2 (cells are
	// offset by Ghost in w).
	for f := 0; f <= n; f++ {
		hllInto(&plus[f+1], &minus[f+2], dir, &fl[f])
	}
	return int64(n + 1)
}

// faceStatesMinmod extrapolates cell mid to its right face (*plus, side=+1
// in the reference reconstruct) and left face (*minus, side=-1) with minmod
// slopes computed once and shared by both faces.
func faceStatesMinmod(lo, mid, hi, plus, minus *prim) {
	srho := minmod(mid.rho-lo.rho, hi.rho-mid.rho)
	svx := minmod(mid.vx-lo.vx, hi.vx-mid.vx)
	svy := minmod(mid.vy-lo.vy, hi.vy-mid.vy)
	svz := minmod(mid.vz-lo.vz, hi.vz-mid.vz)
	sp := minmod(mid.p-lo.p, hi.p-mid.p)
	sbx := minmod(mid.bx-lo.bx, hi.bx-mid.bx)
	sby := minmod(mid.by-lo.by, hi.by-mid.by)
	sbz := minmod(mid.bz-lo.bz, hi.bz-mid.bz)
	setFaceStates(mid, plus, minus, srho, svx, svy, svz, sp, sbx, sby, sbz)
}

func setFaceStates(mid, plus, minus *prim, srho, svx, svy, svz, sp, sbx, sby, sbz float64) {
	// mid + 0.5*s and mid + (-0.5)*s match the reference's mid + h*lim(...)
	// with h = ±0.5 bit-for-bit (negation commutes exactly with both the
	// multiply and the add).
	*plus = prim{
		rho: mid.rho + 0.5*srho,
		vx:  mid.vx + 0.5*svx,
		vy:  mid.vy + 0.5*svy,
		vz:  mid.vz + 0.5*svz,
		p:   mid.p + 0.5*sp,
		bx:  mid.bx + 0.5*sbx,
		by:  mid.by + 0.5*sby,
		bz:  mid.bz + 0.5*sbz,
	}
	if plus.rho < floorRho {
		plus.rho = floorRho
	}
	if plus.p < floorP {
		plus.p = floorP
	}
	*minus = prim{
		rho: mid.rho - 0.5*srho,
		vx:  mid.vx - 0.5*svx,
		vy:  mid.vy - 0.5*svy,
		vz:  mid.vz - 0.5*svz,
		p:   mid.p - 0.5*sp,
		bx:  mid.bx - 0.5*sbx,
		by:  mid.by - 0.5*sby,
		bz:  mid.bz - 0.5*sbz,
	}
	if minus.rho < floorRho {
		minus.rho = floorRho
	}
	if minus.p < floorP {
		minus.p = floorP
	}
}
