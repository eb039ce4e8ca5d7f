package serve

import (
	"dsenergy/internal/core"
	"dsenergy/internal/pareto"
)

// AdviseFromCurve turns one prediction curve (core.CurvePoint per candidate
// clock, in curve order) into an advisory response against the given
// deadline. The choice rule mirrors the scheduler's model policy: minimum
// predicted energy among candidates predicted to finish by the deadline,
// escalating to the fastest predicted clock when none does. It is the
// single decision function behind both Advise and the coalesced batch path,
// which is what makes batched and per-request answers bit-identical.
func (e *Entry) AdviseFromCurve(curve []core.CurvePoint, deadlineS float64) Response {
	best, escalated := chooseFreq(curve, deadlineS)
	resp := Response{
		App:            e.App,
		Device:         e.Device,
		Version:        e.Version,
		RecommendedMHz: curve[best].FreqMHz,
		PredTimeS:      curve[best].TimeS,
		PredEnergyJ:    curve[best].EnergyJ,
		Escalated:      escalated,
	}
	maxIdx := 0
	for i, c := range curve {
		if c.FreqMHz > curve[maxIdx].FreqMHz {
			maxIdx = i
		}
	}
	resp.PredEnergyMaxJ = curve[maxIdx].EnergyJ
	// The front is computed in a stack copy of the curve; only a menu
	// longer than core.SmallMenu spills to the heap.
	var buf [core.SmallMenu]pareto.Point
	pts := buf[:0]
	for _, c := range curve {
		pts = append(pts, pareto.Point{FreqMHz: c.FreqMHz, Speedup: c.Speedup, NormEnergy: c.NormEnergy})
	}
	for _, p := range pareto.AppendFront(pts[:0], pts) {
		if p.FreqMHz == resp.RecommendedMHz {
			resp.OnPareto = true
			break
		}
	}
	return resp
}

// chooseFreq picks the curve index of the recommendation. Ties break to the
// earliest candidate in curve order (the lowest clock when the curve is
// ascending), making the choice deterministic for identical predictions.
func chooseFreq(curve []core.CurvePoint, deadlineS float64) (int, bool) {
	best, found := 0, false
	for i, c := range curve {
		if c.TimeS > deadlineS {
			continue
		}
		if !found || c.EnergyJ < curve[best].EnergyJ {
			best, found = i, true
		}
	}
	if found {
		return best, false
	}
	fastest := 0
	for i, c := range curve {
		if c.TimeS < curve[fastest].TimeS {
			fastest = i
		}
	}
	return fastest, true
}
