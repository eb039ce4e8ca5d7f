package cronos

import (
	"fmt"
	"math"

	"dsenergy/internal/parallel"
)

// defaultTileWidth is the pencil-tile width of the Y and Z sweeps: how many
// pencils are gathered into one contiguous workspace tile before their fluxes
// are evaluated and scattered back. Tiles turn the strided column/stack
// gathers of those sweeps into streaming row-major reads and writes. The
// value is a cache trade-off, not a correctness parameter — every width
// produces byte-identical results (locked by TestTileWidthInvariance).
const defaultTileWidth = 16

// CFLNumber is the Courant number of the timestep control.
const CFLNumber float64 = 0.4

// InitialDT bounds the first timestep before a CFL value exists.
const InitialDT float64 = 1e-4

// Config configures a solver run.
type Config struct {
	NX, NY, NZ int
	Boundary   Boundary
	// Workers is the goroutine-pool width (0 selects GOMAXPROCS).
	Workers int
	// TileWidth is the pencil-tile width of the Y/Z sweeps (0 selects the
	// default). Any positive value produces byte-identical results; the
	// width only tunes cache behaviour.
	TileWidth int
}

// Solver advances an MHD state following Algorithm 1 of the paper.
type Solver struct {
	Grid     *Grid
	cfg      Config
	Time     float64
	DT       float64
	StepsRun int
	// CFLMax is the most recent global CFL reduction result.
	CFLMax float64
	// FluxEvals counts HLL flux evaluations, for profile cross-checks.
	FluxEvals int64

	changes *Grid  // dU/dt buffer; ghost entries stay zero for its lifetime
	u0      *Grid  // RK stage-0 snapshot
	prims   []prim // per-substep primitive mirror of the ghosted grid
	ws      []*sweepWorkspace
	parts   []slabPartial
	gang    *parallel.Gang // the slab workers of every sweep, until Close
}

// NewSolver builds a solver with an allocated grid; call an initializer from
// problems.go (or fill Grid manually) before Run. The solver starts
// Workers−1 goroutines that live until Close.
func NewSolver(cfg Config) (*Solver, error) {
	g, err := NewGrid(cfg.NX, cfg.NY, cfg.NZ)
	if err != nil {
		return nil, err
	}
	cfg.Workers = parallel.Workers(cfg.Workers)
	if cfg.TileWidth <= 0 {
		cfg.TileWidth = defaultTileWidth
	}
	maxDim := max(cfg.NX, cfg.NY, cfg.NZ)
	ws := make([]*sweepWorkspace, cfg.Workers)
	for i := range ws {
		ws[i] = newSweepWorkspace(maxDim, cfg.TileWidth)
	}
	return &Solver{
		Grid: g,
		cfg:  cfg,
		DT:   InitialDT,
		// changes is allocated zeroed and its ghost entries are never
		// written again: the X sweep overwrites every interior cell each
		// substep, so no per-substep clear is needed.
		changes: g.Clone(),
		u0:      g.Clone(),
		prims:   make([]prim, len(g.U[0])),
		ws:      ws,
		parts:   make([]slabPartial, cfg.Workers),
		gang:    parallel.NewGang(cfg.Workers),
	}, nil
}

// Close stops the solver's worker goroutines. The solver must not step
// after Close; its state stays readable.
func (s *Solver) Close() { s.gang.Close() }

// computeChanges evaluates dU/dt into s.changes from the state in g and
// returns the global CFL value (max over cells of sum_d (|v_d|+c_f,d)/dx_d),
// per Algorithm 1 lines 8-9. Each slab writes its CFL/flux-count partial to
// its own slot in s.parts and the slots are absorbed in slab order after the
// join, so the reduction is deterministic for every worker count.
func (s *Solver) computeChanges(g *Grid) float64 {
	s.refreshPrims(g)

	// X and Y sweeps parallelize over z-slabs; each slab owns its faces.
	slabs := s.gang.Run(g.NZ, func(slab, kLo, kHi int) {
		cfl, fx := s.sweepXY(g, s.ws[slab], kLo, kHi)
		s.parts[slab] = slabPartial{cfl: cfl, fluxes: fx}
	})
	var cflXY float64
	var fluxes int64
	for i := 0; i < slabs; i++ {
		if s.parts[i].cfl > cflXY {
			cflXY = s.parts[i].cfl
		}
		fluxes += s.parts[i].fluxes
	}

	// Z sweep parallelizes over y-slabs; faces along z stay row-local. It
	// contributes no CFL (the x-sweep already reduces the full 3-D value).
	slabs = s.gang.Run(g.NY, func(slab, jLo, jHi int) {
		fx := s.sweepZ(g, s.ws[slab], jLo, jHi)
		s.parts[slab] = slabPartial{fluxes: fx}
	})
	for i := 0; i < slabs; i++ {
		fluxes += s.parts[i].fluxes
	}

	s.FluxEvals += fluxes
	return cflXY
}

// sspRK3 holds the classic Shu-Osher coefficients (a0, a1, b) of the three
// SSP-RK3 substeps: u ← a0·u0 + a1·u + b·dt·L(u).
var sspRK3 = [3][3]float64{{1, 0, 1}, {0.75, 0.25, 0.25}, {1.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0}}

// integrateTime applies one SSP-RK3 substep, per Algorithm 1 line 10: the
// grid is combined with the stage-0 snapshot and dt·L(u).
func (s *Solver) integrateTime(substep int) {
	a0, a1, b := sspRK3[substep][0], sspRK3[substep][1], sspRK3[substep][2]
	g := s.Grid
	dt := s.DT
	n := len(g.U[0])
	s.gang.Run(n, func(_, lo, hi int) {
		for v := 0; v < NVars; v++ {
			u, u0, ch := g.U[v], s.u0.U[v], s.changes.U[v]
			for i := lo; i < hi; i++ {
				u[i] = a0*u0[i] + a1*u[i] + b*dt*ch[i]
			}
		}
	})
}

// Step advances one full timestep (three substeps, CFL reduction, boundary
// refresh and timestep adjustment), following Algorithm 1 lines 4-14.
func (s *Solver) Step() {
	s.u0.CopyFrom(s.Grid)
	var cfl float64
	for substep := 0; substep < 3; substep++ {
		c := s.computeChanges(s.Grid)
		if c > cfl {
			cfl = c
		}
		s.integrateTime(substep)
		s.Grid.ApplyBoundary(s.cfg.Boundary)
	}
	s.CFLMax = cfl
	s.Time += s.DT
	s.StepsRun++
	s.DT = adjustTimestepDelta(s.DT, CFLNumber, cfl, s.StepsRun)
}

// adjustTimestepDelta returns the next dt for a Courant number and the step's
// CFL reduction, limiting growth to 10% per step as Cronos does for
// stability; a non-positive cfl keeps dt.
func adjustTimestepDelta(dt, courant, cfl float64, stepsRun int) float64 {
	if cfl <= 0 {
		return dt
	}
	want := courant / cfl
	if want > 1.1*dt && stepsRun > 1 {
		want = 1.1 * dt
	}
	return want
}

// Run advances until endTime is reached or maxSteps steps have been taken
// (maxSteps <= 0 means no step limit).
func (s *Solver) Run(endTime float64, maxSteps int) error {
	if s.Grid == nil {
		return fmt.Errorf("cronos: solver has no grid")
	}
	s.Grid.ApplyBoundary(s.cfg.Boundary)
	for s.Time < endTime {
		if maxSteps > 0 && s.StepsRun >= maxSteps {
			break
		}
		if s.Time+s.DT > endTime {
			s.DT = endTime - s.Time
		}
		s.Step()
		if math.IsNaN(s.CFLMax) || math.IsInf(s.CFLMax, 0) {
			return fmt.Errorf("cronos: solver diverged at t=%g (step %d)", s.Time, s.StepsRun)
		}
	}
	return nil
}
