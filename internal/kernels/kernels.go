// Package kernels defines the kernel intermediate representation shared by
// the GPU simulator, the applications (LiGen, Cronos) and the energy models.
//
// A kernel is described by its per-work-item instruction histogram — the
// exact static code features used by the general-purpose energy model of
// Fan et al. (ICPP'19), reproduced in Table 1 of the paper — together with
// its launch geometry (number of work items, number of launches). From the
// histogram the simulator derives compute cycles and DRAM traffic, and the
// general-purpose model derives its input-independent feature vector.
package kernels

import "math"

// InstructionMix counts dynamic instructions executed per work item, bucketed
// into the ten static feature classes of Table 1 of the paper.
type InstructionMix struct {
	IntAdd     float64 // integer additions and subtractions
	IntMul     float64 // integer multiplications
	IntDiv     float64 // integer divisions
	IntBitwise float64 // integer bitwise operations
	FloatAdd   float64 // floating point additions and subtractions
	FloatMul   float64 // floating point multiplications
	FloatDiv   float64 // floating point divisions
	SpecialFn  float64 // special functions (sin, cos, sqrt, exp, ...)
	GlobalAcc  float64 // global memory accesses (4-byte words)
	LocalAcc   float64 // local (shared) memory accesses
}

// FeatureNames lists the static feature names in the order produced by
// StaticFeatures. The names follow Table 1 of the paper.
var FeatureNames = []string{
	"f_int_add", "f_int_mul", "f_int_div", "f_int_bw",
	"f_float_add", "f_float_mul", "f_float_div", "f_sf",
	"f_gl_access", "f_loc_access",
}

// Total returns the total per-work-item instruction count.
func (m InstructionMix) Total() float64 {
	return m.IntAdd + m.IntMul + m.IntDiv + m.IntBitwise +
		m.FloatAdd + m.FloatMul + m.FloatDiv + m.SpecialFn +
		m.GlobalAcc + m.LocalAcc
}

// StaticFeatures returns the normalized instruction-class fractions — the
// general-purpose model's feature vector (Table 1). The vector sums to 1 for
// any non-empty mix; an empty mix yields the zero vector.
func (m InstructionMix) StaticFeatures() []float64 {
	t := m.Total()
	if t == 0 {
		return make([]float64, len(FeatureNames))
	}
	return []float64{
		m.IntAdd / t, m.IntMul / t, m.IntDiv / t, m.IntBitwise / t,
		m.FloatAdd / t, m.FloatMul / t, m.FloatDiv / t, m.SpecialFn / t,
		m.GlobalAcc / t, m.LocalAcc / t,
	}
}

// Scale returns a copy of m with every class multiplied by k. It is used by
// the applications to assemble per-work-item mixes from per-element costs.
func (m InstructionMix) Scale(k float64) InstructionMix {
	return InstructionMix{
		IntAdd: m.IntAdd * k, IntMul: m.IntMul * k, IntDiv: m.IntDiv * k,
		IntBitwise: m.IntBitwise * k,
		FloatAdd:   m.FloatAdd * k, FloatMul: m.FloatMul * k,
		FloatDiv: m.FloatDiv * k, SpecialFn: m.SpecialFn * k,
		GlobalAcc: m.GlobalAcc * k, LocalAcc: m.LocalAcc * k,
	}
}

// Add returns the element-wise sum of m and o.
func (m InstructionMix) Add(o InstructionMix) InstructionMix {
	return InstructionMix{
		IntAdd: m.IntAdd + o.IntAdd, IntMul: m.IntMul + o.IntMul,
		IntDiv: m.IntDiv + o.IntDiv, IntBitwise: m.IntBitwise + o.IntBitwise,
		FloatAdd: m.FloatAdd + o.FloatAdd, FloatMul: m.FloatMul + o.FloatMul,
		FloatDiv: m.FloatDiv + o.FloatDiv, SpecialFn: m.SpecialFn + o.SpecialFn,
		GlobalAcc: m.GlobalAcc + o.GlobalAcc, LocalAcc: m.LocalAcc + o.LocalAcc,
	}
}

// Per-class issue costs in SIMD-lane cycles. Simple ALU operations retire one
// per cycle per lane; divisions and special functions occupy the shared SFU
// pipes for many cycles, matching the throughput tables of recent NVIDIA and
// AMD ISAs.
const (
	cyclesIntAdd   = 1.0
	cyclesIntMul   = 1.0
	cyclesIntDiv   = 12.0
	cyclesIntBw    = 1.0
	cyclesFloatAdd = 1.0
	cyclesFloatMul = 1.0
	cyclesFloatDiv = 8.0
	cyclesSpecial  = 4.0
	cyclesLocalAcc = 2.0
	// Global accesses are accounted as DRAM traffic, not issue cycles; the
	// address generation cost is folded into cyclesGlobalIssue.
	cyclesGlobalIssue = 1.0
)

// ComputeCycles returns the SIMD-lane cycles a single work item spends in the
// execution pipelines. Together with the device's lane count and clock this
// yields the compute-roof time.
func (m InstructionMix) ComputeCycles() float64 {
	return m.IntAdd*cyclesIntAdd + m.IntMul*cyclesIntMul +
		m.IntDiv*cyclesIntDiv + m.IntBitwise*cyclesIntBw +
		m.FloatAdd*cyclesFloatAdd + m.FloatMul*cyclesFloatMul +
		m.FloatDiv*cyclesFloatDiv + m.SpecialFn*cyclesSpecial +
		m.LocalAcc*cyclesLocalAcc + m.GlobalAcc*cyclesGlobalIssue
}

// Flops returns the floating point operations per work item (divisions and
// special functions count once each, as profilers report them).
func (m InstructionMix) Flops() float64 {
	return m.FloatAdd + m.FloatMul + m.FloatDiv + m.SpecialFn
}

// GlobalBytes returns the raw (cache-unaware) DRAM bytes touched by one work
// item, assuming 4-byte words as in the paper's feature definition.
func (m InstructionMix) GlobalBytes() float64 {
	return m.GlobalAcc * 4
}

// Profile describes one GPU kernel invocation pattern: the per-work-item
// instruction mix plus launch geometry and locality hints. It is the unit of
// work submitted to a simulated device.
type Profile struct {
	// Name identifies the kernel in traces and reports.
	Name string
	// Mix is the per-work-item dynamic instruction histogram.
	Mix InstructionMix
	// WorkItems is the number of work items per launch.
	WorkItems float64
	// Launches is how many times the kernel is enqueued back to back.
	Launches float64
	// WorkingSetBytes is the resident data footprint of one launch. When it
	// exceeds the device's last-level cache, the effective DRAM traffic
	// rises toward the raw GlobalBytes (see gpusim's cache model).
	WorkingSetBytes float64
	// CacheReuse in [0,1) is the fraction of global accesses served by cache
	// when the working set fits. Stencils and docking kernels with high
	// neighborhood reuse set this close to 1.
	CacheReuse float64
}

// TotalComputeCycles returns the lane-cycles of the whole launch.
func (p Profile) TotalComputeCycles() float64 {
	return p.Mix.ComputeCycles() * p.WorkItems
}

// TotalFlops returns the floating point work of one launch.
func (p Profile) TotalFlops() float64 {
	return p.Mix.Flops() * p.WorkItems
}

// RawGlobalBytes returns the cache-unaware DRAM traffic of one launch.
func (p Profile) RawGlobalBytes() float64 {
	return p.Mix.GlobalBytes() * p.WorkItems
}

// Validate reports whether the profile is well formed (finite, non-negative
// counts, at least one work item and one launch, reuse within [0,1)). Every
// check is written so that a NaN fails it. The pointer receiver keeps the
// per-submission check from copying the profile.
func (p *Profile) Validate() error {
	switch {
	case !(p.WorkItems > 0) || math.IsInf(p.WorkItems, 1):
		return errProfile("WorkItems must be positive and finite")
	case !(p.Launches > 0) || math.IsInf(p.Launches, 1):
		return errProfile("Launches must be positive and finite")
	case !(p.CacheReuse >= 0 && p.CacheReuse < 1):
		return errProfile("CacheReuse must be in [0,1)")
	case !(p.WorkingSetBytes >= 0) || math.IsInf(p.WorkingSetBytes, 1):
		return errProfile("WorkingSetBytes must be non-negative and finite")
	case !p.Mix.finite():
		return errProfile("instruction mix has non-finite counts")
	case p.Mix.Total() <= 0:
		return errProfile("instruction mix is empty")
	}
	if anyNegative(&p.Mix) {
		return errProfile("instruction mix has negative counts")
	}
	return nil
}

// finite reports whether every count of m is finite: 0·x is NaN exactly
// when x is NaN or infinite, and a NaN term makes the sum NaN.
func (m *InstructionMix) finite() bool {
	return 0*m.IntAdd+0*m.IntMul+0*m.IntDiv+0*m.IntBitwise+
		0*m.FloatAdd+0*m.FloatMul+0*m.FloatDiv+0*m.SpecialFn+
		0*m.GlobalAcc+0*m.LocalAcc == 0
}

func anyNegative(m *InstructionMix) bool {
	return m.IntAdd < 0 || m.IntMul < 0 || m.IntDiv < 0 || m.IntBitwise < 0 ||
		m.FloatAdd < 0 || m.FloatMul < 0 || m.FloatDiv < 0 || m.SpecialFn < 0 ||
		m.GlobalAcc < 0 || m.LocalAcc < 0
}

type errProfile string

func (e errProfile) Error() string { return "kernels: invalid profile: " + string(e) }
