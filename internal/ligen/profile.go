package ligen

import (
	"fmt"
	"math"

	"dsenergy/internal/gpusim"
	"dsenergy/internal/kernels"
	"dsenergy/internal/synergy"
)

// Input identifies one virtual-screening workload by the three parameters
// the paper's domain-specific LiGen model uses as features (Table 2):
// number of ligands, atoms per ligand, fragments per ligand.
type Input struct {
	Ligands   int
	Atoms     int
	Fragments int
}

// String renders the input as the paper labels it (atoms x fragments x ligands).
func (in Input) String() string {
	return fmt.Sprintf("%dx%dx%d", in.Atoms, in.Fragments, in.Ligands)
}

// Validate reports whether the input is usable.
func (in Input) Validate() error {
	if in.Ligands < 1 || in.Atoms < 2 || in.Fragments < 1 || in.Fragments > in.Atoms {
		return fmt.Errorf("ligen: invalid input %+v", in)
	}
	return nil
}

// Per-atom-evaluation instruction cost of the dock inner loop: one Rodrigues
// rotation plus one trilinear affinity sample and the clash check, as
// implemented by optimize in dock.go. GlobalAcc counts amortized post-L1
// traffic (the pocket grid and coordinate streams); the remaining locality
// is expressed through dockCacheReuse.
var dockEvalMix = kernels.InstructionMix{
	IntAdd: 10, IntMul: 6, IntBitwise: 2,
	FloatAdd: 33, FloatMul: 45, FloatDiv: 0.5, SpecialFn: 2,
	GlobalAcc: 4.5, LocalAcc: 8,
}

// dockSetupMix is the per-restart, per-atom cost of initialize_pose, align
// and evaluate.
var dockSetupMix = kernels.InstructionMix{
	IntAdd: 6, IntMul: 2,
	FloatAdd: 30, FloatMul: 40, FloatDiv: 1, SpecialFn: 4,
	GlobalAcc: 6, LocalAcc: 4,
}

// scoreAtomMix is the per-pose, per-atom cost of compute_score: affinity,
// electrostatics and the soft van-der-Waals term.
var scoreAtomMix = kernels.InstructionMix{
	IntAdd: 12, IntMul: 8,
	FloatAdd: 40, FloatMul: 60, FloatDiv: 4, SpecialFn: 3,
	GlobalAcc: 6, LocalAcc: 4,
}

const (
	// dockCacheReuse is the post-L1 hit fraction of the dock kernel while
	// its coordinate working set fits in the LLC.
	dockCacheReuse  = 0.93
	scoreCacheReuse = 0.80
	sortCacheReuse  = 0.50
	// ligandBatch is how many ligands LiGen packs into one kernel launch.
	ligandBatch = 2048
	// bytesPerAtomResident is the per-atom coordinate footprint kept
	// resident during docking (current + best pose, double precision).
	bytesPerAtomResident = 48
)

// Workload is a virtual-screening campaign as a GPU workload. It implements
// synergy.Workload.
type Workload struct {
	Input  Input
	Params Params
	// PocketBytes is the receptor grid footprint; zero selects the default
	// pocket size.
	PocketBytes float64
	// BatchOverride replaces the default per-launch ligand batch when
	// positive (used by the batching ablation).
	BatchOverride int
}

// NewWorkload validates and builds a workload with campaign-scale parameters.
func NewWorkload(in Input) (Workload, error) {
	if err := in.Validate(); err != nil {
		return Workload{}, err
	}
	n := DefaultPocketN
	return Workload{
		Input:       in,
		Params:      DefaultParams(),
		PocketBytes: float64(2 * n * n * n * 8),
	}, nil
}

// Name implements synergy.Workload.
func (w Workload) Name() string { return "ligen-" + w.Input.String() }

// evalsPerAtomThread returns the dock-loop atom evaluations executed by one
// atom thread: restarts × iterations × rotamers × probed angles, halved
// because on average half the atoms move per rotamer (the fragment split).
func (w Workload) evalsPerAtomThread() float64 {
	p := w.Params
	rotamers := float64(w.Input.Fragments - 1)
	if rotamers < 1 {
		rotamers = 1 // rigid ligands still run one alignment probe
	}
	return float64(p.NumRestart) * float64(p.NumIterations) * rotamers * float64(p.NumAngles) * 0.5
}

// Profiles returns the GPU kernels of the campaign: dock (pose search),
// score (refined scoring of the clipped pose set) and sortPoses (ranking).
func (w Workload) Profiles() []kernels.Profile {
	in, p := w.Input, w.Params
	lig := float64(in.Ligands)
	atoms := float64(in.Atoms)
	batchSize := float64(ligandBatch)
	if w.BatchOverride > 0 {
		batchSize = float64(w.BatchOverride)
	}
	batch := math.Min(lig, batchSize)
	launches := math.Ceil(lig / batchSize)

	dockMix := dockEvalMix.Scale(w.evalsPerAtomThread()).
		Add(dockSetupMix.Scale(float64(p.NumRestart) * 2))
	scoreMix := scoreAtomMix.Scale(float64(p.MaxNumPoses))
	sortMix := kernels.InstructionMix{
		IntAdd:     4 * float64(p.NumRestart) * math.Log2(float64(p.NumRestart)+1),
		IntBitwise: float64(p.NumRestart),
		GlobalAcc:  2 * float64(p.NumRestart),
	}

	coordWS := batch * atoms * bytesPerAtomResident
	return []kernels.Profile{
		{
			Name: "dock", Mix: dockMix,
			WorkItems: batch * atoms, Launches: launches,
			WorkingSetBytes: coordWS + w.PocketBytes,
			CacheReuse:      dockCacheReuse,
		},
		{
			Name: "score", Mix: scoreMix,
			WorkItems: batch * atoms, Launches: launches,
			WorkingSetBytes: batch*float64(p.MaxNumPoses)*atoms*24 + w.PocketBytes,
			CacheReuse:      scoreCacheReuse,
		},
		{
			Name: "sortPoses", Mix: sortMix,
			WorkItems: batch, Launches: launches,
			WorkingSetBytes: batch * float64(p.NumRestart) * 8,
			CacheReuse:      sortCacheReuse,
		},
	}
}

// RunOn implements synergy.Workload.
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
