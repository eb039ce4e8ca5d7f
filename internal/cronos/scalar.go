package cronos

import (
	"context"
	"fmt"
	"math"

	"dsenergy/internal/parallel"
)

// User-provided conservation laws: the paper notes that Cronos "allows the
// solver to be used for other conservation laws that can be provided by the
// user". This file implements that capability for scalar laws
// ∂u/∂t + ∇·F(u) = 0 on the same 3-D mesh, with the same building blocks as
// the MHD solver: MUSCL/minmod reconstruction, a local Lax-Friedrichs
// numerical flux, SSP-RK3 substeps, CFL-driven timesteps, and z-plane
// parallelism.

// ScalarLaw is a user-provided scalar conservation law: the physical flux
// per direction and the characteristic speed bounding it.
type ScalarLaw interface {
	// Flux returns F_d(u) for direction d (0=x, 1=y, 2=z).
	Flux(u float64, dir int) float64
	// MaxSpeed returns an upper bound on |F_d'(u)| for the CFL condition
	// and the Lax-Friedrichs dissipation.
	MaxSpeed(u float64, dir int) float64
}

// AdvectionLaw is linear advection with velocity V — the canonical smoke
// test (exact solution: translation).
type AdvectionLaw struct {
	V [3]float64
}

// Flux implements ScalarLaw.
func (l AdvectionLaw) Flux(u float64, dir int) float64 { return l.V[dir] * u }

// MaxSpeed implements ScalarLaw.
func (l AdvectionLaw) MaxSpeed(_ float64, dir int) float64 { return math.Abs(l.V[dir]) }

// BurgersLaw is the inviscid Burgers equation along x (F = u²/2), the
// canonical nonlinear law that steepens smooth data into shocks.
type BurgersLaw struct{}

// Flux implements ScalarLaw.
func (BurgersLaw) Flux(u float64, dir int) float64 {
	if dir == 0 {
		return 0.5 * u * u
	}
	return 0
}

// MaxSpeed implements ScalarLaw.
func (BurgersLaw) MaxSpeed(u float64, dir int) float64 {
	if dir == 0 {
		return math.Abs(u)
	}
	return 0
}

// ScalarSolver advances a user-provided scalar conservation law.
type ScalarSolver struct {
	Law        ScalarLaw
	NX, NY, NZ int
	DX, DY, DZ float64
	Boundary   Boundary
	CFL        float64
	// Workers is the worker-pool width (0 selects GOMAXPROCS).
	Workers int

	Time     float64
	DT       float64
	StepsRun int

	u       []float64 // state with ghosts
	u0      []float64
	changes []float64
	mesh    Grid // geometry only: ghost-aware indexing and boundary fill
}

// NewScalarSolver builds a solver on an nx×ny×nz unit-x-length mesh.
func NewScalarSolver(law ScalarLaw, nx, ny, nz int, b Boundary) (*ScalarSolver, error) {
	if law == nil {
		return nil, fmt.Errorf("cronos: nil conservation law")
	}
	if nx < 1 || ny < 1 || nz < 1 {
		return nil, fmt.Errorf("cronos: invalid scalar grid %dx%dx%d", nx, ny, nz)
	}
	n := (nx + 2*Ghost) * (ny + 2*Ghost) * (nz + 2*Ghost)
	return &ScalarSolver{
		Law: law, NX: nx, NY: ny, NZ: nz,
		DX: 1.0 / float64(nx), DY: 1.0 / float64(nx), DZ: 1.0 / float64(nx),
		Boundary: b, CFL: 0.4, Workers: parallel.Workers(0),
		DT: 1e-4,
		u:  make([]float64, n), u0: make([]float64, n), changes: make([]float64, n),
		mesh: Grid{NX: nx, NY: ny, NZ: nz, sx: nx + 2*Ghost, sy: ny + 2*Ghost},
	}, nil
}

// Idx flattens interior coordinates (ghosts via negative/overflow indices).
func (s *ScalarSolver) Idx(i, j, k int) int { return s.mesh.Idx(i, j, k) }

// At returns the state at interior coordinates.
func (s *ScalarSolver) At(i, j, k int) float64 { return s.u[s.Idx(i, j, k)] }

// Set assigns the state at interior coordinates.
func (s *ScalarSolver) Set(i, j, k int, v float64) { s.u[s.Idx(i, j, k)] = v }

// Init fills the state from a function of cell-center coordinates.
func (s *ScalarSolver) Init(f func(x, y, z float64) float64) {
	for k := 0; k < s.NZ; k++ {
		z := (float64(k) + 0.5) * s.DZ
		for j := 0; j < s.NY; j++ {
			y := (float64(j) + 0.5) * s.DY
			for i := 0; i < s.NX; i++ {
				x := (float64(i) + 0.5) * s.DX
				s.Set(i, j, k, f(x, y, z))
			}
		}
	}
	s.mesh.fillGhosts(s.u, s.Boundary)
}

// computeChanges evaluates -∇·F into changes and returns the global CFL
// value, parallel over z-planes. Each cell's update and the CFL max are
// independent of the partition, so every worker count gives the same bytes.
func (s *ScalarSolver) computeChanges() float64 {
	// No task fails and the context is never cancelled, so Map cannot fail.
	cfls, _ := parallel.Map(context.Background(), s.NZ, s.Workers, func(_ context.Context, k int) (float64, error) {
		return s.planeChanges(k), nil
	})
	var cfl float64
	for _, v := range cfls {
		if v > cfl {
			cfl = v
		}
	}
	return cfl
}

// planeChanges writes -∇·F of every cell of z-plane k into changes and
// returns the plane's CFL value; x/y faces are plane-local and z faces only
// read (never write) the neighbour planes, so planes are data-race free.
// The ghost entries of changes are never written and stay zero.
func (s *ScalarSolver) planeChanges(k int) float64 {
	var cfl float64
	dxs := [3]float64{s.DX, s.DY, s.DZ}
	for j := 0; j < s.NY; j++ {
		for i := 0; i < s.NX; i++ {
			idx := s.Idx(i, j, k)
			u := s.u[idx]
			var c float64
			for d := 0; d < 3; d++ {
				c += s.Law.MaxSpeed(u, d) / dxs[d]
			}
			if c > cfl {
				cfl = c
			}
			// Flux difference per direction with LLF fluxes at both faces
			// of this cell, accumulated from zero.
			var ch float64
			for d := 0; d < 3; d++ {
				ch -= (s.faceFlux(i, j, k, d, +1) - s.faceFlux(i, j, k, d, -1)) / dxs[d]
			}
			s.changes[idx] = ch
		}
	}
	return cfl
}

// neighbor returns the state offset by o cells along dir from (i,j,k).
func (s *ScalarSolver) neighbor(i, j, k, dir, o int) float64 {
	switch dir {
	case 0:
		return s.u[s.Idx(i+o, j, k)]
	case 1:
		return s.u[s.Idx(i, j+o, k)]
	default:
		return s.u[s.Idx(i, j, k+o)]
	}
}

// faceFlux computes the local Lax-Friedrichs flux at the +side/-side face of
// cell (i,j,k) along dir, with minmod-limited MUSCL reconstruction.
func (s *ScalarSolver) faceFlux(i, j, k, dir, side int) float64 {
	// Face between cell c (left) and c+1 (right) along dir; for side=-1 the
	// face between c-1 and c.
	base := 0
	if side < 0 {
		base = -1
	}
	um1 := s.neighbor(i, j, k, dir, base-1)
	u0 := s.neighbor(i, j, k, dir, base)
	u1 := s.neighbor(i, j, k, dir, base+1)
	u2 := s.neighbor(i, j, k, dir, base+2)
	left := u0 + 0.5*minmod(u0-um1, u1-u0)
	right := u1 - 0.5*minmod(u1-u0, u2-u1)
	a := math.Max(s.Law.MaxSpeed(left, dir), s.Law.MaxSpeed(right, dir))
	return 0.5*(s.Law.Flux(left, dir)+s.Law.Flux(right, dir)) - 0.5*a*(right-left)
}

// Step advances one SSP-RK3 timestep.
func (s *ScalarSolver) Step() {
	copy(s.u0, s.u)
	var cflMax float64
	for sub := 0; sub < 3; sub++ {
		cfl := s.computeChanges()
		if cfl > cflMax {
			cflMax = cfl
		}
		a0, a1, b := sspRK3[sub][0], sspRK3[sub][1], sspRK3[sub][2]
		for idx := range s.u {
			s.u[idx] = a0*s.u0[idx] + a1*s.u[idx] + b*s.DT*s.changes[idx]
		}
		s.mesh.fillGhosts(s.u, s.Boundary)
	}
	s.Time += s.DT
	s.StepsRun++
	s.DT = adjustTimestepDelta(s.DT, s.CFL, cflMax, s.StepsRun)
}

// Run advances until endTime (or maxSteps when positive).
func (s *ScalarSolver) Run(endTime float64, maxSteps int) error {
	for s.Time < endTime {
		if maxSteps > 0 && s.StepsRun >= maxSteps {
			break
		}
		if s.Time+s.DT > endTime {
			s.DT = endTime - s.Time
		}
		s.Step()
		for _, v := range s.u {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("cronos: scalar solver diverged at t=%g", s.Time)
			}
		}
	}
	return nil
}
