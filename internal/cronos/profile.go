package cronos

import (
	"fmt"

	"dsenergy/internal/gpusim"
	"dsenergy/internal/kernels"
	"dsenergy/internal/synergy"
)

// Per-cell instruction costs of the four kernels of Algorithm 1, derived from
// the reference solver in this package: three directional MUSCL+HLL sweeps
// per computeChanges (≈1 flux per cell per direction), three primitive
// conversions, and the per-cell CFL estimate. The numbers are cross-checked
// against the solver's instrumented flux counts in profile_test.go.
var (
	// computeChangesMix is the per-cell cost of the 13-point stencil kernel.
	computeChangesMix = kernels.InstructionMix{
		IntAdd: 60, IntMul: 25, IntBitwise: 5,
		FloatAdd: 500, FloatMul: 500, FloatDiv: 30, SpecialFn: 18,
		// Raw (cache-oblivious) accesses: three sweeps reading a 5-cell
		// neighbourhood of 8 doubles plus the change and CFL writes.
		GlobalAcc: 258, LocalAcc: 40,
	}
	// computeChangesReuse is the fraction of raw accesses served on chip
	// when the working set fits: with perfect neighbourhood caching the
	// kernel streams 8 reads + 8 writes + 1 CFL store per cell (264 B of
	// 1032 B raw → reuse 0.744).
	computeChangesReuse = 0.744

	// reduceMix is the per-element cost of the parallel max-reduction.
	reduceMix = kernels.InstructionMix{
		IntAdd: 4, IntBitwise: 2, FloatAdd: 1, GlobalAcc: 2, LocalAcc: 4,
	}

	// integrateMix is the per-cell cost of the RK substep update: streaming
	// u0, u and the changes, writing u (64 words), with 4 flops per variable.
	integrateMix = kernels.InstructionMix{
		IntAdd: 6, FloatAdd: 16, FloatMul: 16, GlobalAcc: 64,
	}

	// boundaryMix is the per-ghost-cell cost of the halo exchange.
	boundaryMix = kernels.InstructionMix{
		IntAdd: 10, IntMul: 4, GlobalAcc: 32,
	}
)

// bytesPerCellResident is the per-cell footprint streamed by computeChanges
// (8 state reads + 8 change writes + 1 CFL) used as its working set.
const bytesPerCellResident = 17 * 8

// Workload describes a Cronos simulation as a GPU workload: the grid size
// and the number of timesteps to advance. It implements synergy.Workload, so
// the measurement harness can sweep it across frequencies.
type Workload struct {
	NX, NY, NZ int
	Steps      int
}

// NewWorkload validates and builds a workload.
func NewWorkload(nx, ny, nz, steps int) (Workload, error) {
	if nx < 1 || ny < 1 || nz < 1 || steps < 1 {
		return Workload{}, fmt.Errorf("cronos: invalid workload %dx%dx%d steps=%d", nx, ny, nz, steps)
	}
	return Workload{NX: nx, NY: ny, NZ: nz, Steps: steps}, nil
}

// Name implements synergy.Workload.
func (w Workload) Name() string {
	return fmt.Sprintf("cronos-%dx%dx%d", w.NX, w.NY, w.NZ)
}

// Cells returns the interior cell count.
func (w Workload) Cells() float64 { return float64(w.NX) * float64(w.NY) * float64(w.NZ) }

// surfaceCells returns the ghost-layer volume touched by applyBoundary.
func (w Workload) surfaceCells() float64 {
	nx, ny, nz := float64(w.NX), float64(w.NY), float64(w.NZ)
	return 2 * Ghost * (nx*ny + ny*nz + nx*nz)
}

// Profiles returns the GPU kernel profiles of one full run: the four kernels
// of Algorithm 1, each launched three times per step (one per RK substep).
func (w Workload) Profiles() []kernels.Profile {
	cells := w.Cells()
	launches := float64(3 * w.Steps)
	ws := cells * bytesPerCellResident
	return []kernels.Profile{
		{
			Name: "computeChanges", Mix: computeChangesMix,
			WorkItems: cells, Launches: launches,
			WorkingSetBytes: ws, CacheReuse: computeChangesReuse,
		},
		{
			Name: "reduceCFL", Mix: reduceMix,
			WorkItems: cells, Launches: launches,
			WorkingSetBytes: cells * 8, CacheReuse: 0,
		},
		{
			Name: "integrateTime", Mix: integrateMix,
			WorkItems: cells, Launches: launches,
			WorkingSetBytes: cells * 32 * 8, CacheReuse: 0,
		},
		{
			Name: "applyBoundary", Mix: boundaryMix,
			WorkItems: w.surfaceCells(), Launches: launches,
			WorkingSetBytes: w.surfaceCells() * 16 * 8, CacheReuse: 0,
		},
	}
}

// RunOn implements synergy.Workload: it submits the run's kernel profiles to
// the queue at its current frequency and returns aggregate time and energy.
func (w Workload) RunOn(q *synergy.Queue) (timeS, energyJ float64, err error) {
	return synergy.Kernels(w.Profiles()).RunOn(q)
}

// AnalyticOn is synergy.Kernels.AnalyticOn over the workload's profiles.
func (w Workload) AnalyticOn(dev *gpusim.Device, mhz int) (timeS, energyJ float64) {
	return synergy.Kernels(w.Profiles()).AnalyticOn(dev, mhz)
}

// AnalyticCurveOn is synergy.Kernels.AnalyticCurveOn over the workload's
// profiles.
func (w Workload) AnalyticCurveOn(dev *gpusim.Device, freqs []int) (timesS, energiesJ []float64) {
	return synergy.Kernels(w.Profiles()).AnalyticCurveOn(dev, freqs)
}
