package sched

import (
	"fmt"

	"dsenergy/internal/core"
)

// Policy selects the per-job core frequency. Every policy shares the same
// admission control, dispatch order and resilience machinery — the clock
// choice is the only degree of freedom, which is what makes the SLO report a
// clean comparison of frequency-selection strategies (Ilager et al.'s
// framing: the learned energy model against max-frequency and static
// baselines).
type Policy int

const (
	// PolicyModel picks, per job, the frequency with the lowest predicted
	// energy among those predicted to meet the deadline (escalating to the
	// fastest clock when none does).
	PolicyModel Policy = iota
	// PolicyMaxFreq always runs at the device's fastest candidate clock.
	PolicyMaxFreq
	// PolicyStatic pins every job to one fixed clock: the first device's
	// baseline clock (Spec.BaselineFreqMHz, 1297 MHz on the V100).
	PolicyStatic
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case PolicyModel:
		return "model"
	case PolicyMaxFreq:
		return "maxfreq"
	case PolicyStatic:
		return "static"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ModelSet bundles the trained per-application domain-specific models (raw
// mode: absolute time and energy), the predictors every scheduling decision
// consults.
type ModelSet struct {
	LiGen  *core.Model
	Cronos *core.Model
}

// curves evaluates the per-frequency prediction curve of one job, rejecting
// a job whose features do not fit the app's model schema.
func (ms *ModelSet) curves(j Job, freqs []int) ([]prediction, error) {
	var m *core.Model
	switch j.App {
	case AppLiGen:
		m = ms.LiGen
	case AppCronos:
		m = ms.Cronos
	}
	if m == nil {
		return nil, fmt.Errorf("sched: no model for app %s", j.App)
	}
	if m.Normalized {
		return nil, fmt.Errorf("sched: app %s model is normalized; the scheduler needs raw time/energy predictions", j.App)
	}
	points, err := m.AppendCurve(nil, j.Features(), freqs)
	if err != nil {
		return nil, fmt.Errorf("sched: job %d: %w", j.ID, err)
	}
	curve := make([]prediction, len(points))
	for i, c := range points {
		curve[i] = prediction{FreqMHz: c.FreqMHz, TimeS: c.TimeS, EnergyJ: c.EnergyJ}
	}
	return curve, nil
}

// prediction is one candidate decision: run the job at FreqMHz, expecting
// TimeS and EnergyJ.
type prediction struct {
	FreqMHz int
	TimeS   float64
	EnergyJ float64
}

// decide picks the frequency for a job from its cached prediction curve.
// startS is when the job would begin on the candidate device; capMHz, when
// non-zero, is the device's observed thermal cap: candidate clocks above it
// are predicted at the capped speed (the throttle-aware re-tune), which
// removes any incentive to command a clock the governor will not deliver.
// guardFrac is the fraction of the remaining slack PolicyModel keeps in
// reserve: its candidates must be predicted to finish by
// startS + (1-guardFrac)·(deadlineS-startS), so noise, backoff and induced
// queueing eat the guard band before they eat the deadline; MaxStretch
// additionally excludes candidates predicted slower than that multiple of
// the fastest effective candidate (blocking control). staticMHz is
// PolicyStatic's pinned clock. The returned escalated flag reports that no
// candidate met the (guarded) deadline and the fastest effective clock was
// chosen instead.
func decide(policy Policy, staticMHz int, curve []prediction, deadlineS, startS float64, capMHz int, guardFrac float64) (prediction, bool) {
	eff := func(p prediction) prediction {
		if capMHz > 0 && p.FreqMHz > capMHz {
			// The governor will deliver at most capMHz: predict the capped
			// clock's time/energy, keep the commanded frequency.
			for i := len(curve) - 1; i >= 0; i-- {
				if curve[i].FreqMHz <= capMHz {
					return prediction{FreqMHz: p.FreqMHz, TimeS: curve[i].TimeS, EnergyJ: curve[i].EnergyJ}
				}
			}
			// Cap below the whole grid: the slowest candidate is the best
			// stand-in the curve can offer.
			return prediction{FreqMHz: p.FreqMHz, TimeS: curve[0].TimeS, EnergyJ: curve[0].EnergyJ}
		}
		return p
	}

	switch policy {
	case PolicyMaxFreq:
		return eff(curve[len(curve)-1]), false
	case PolicyStatic:
		for _, p := range curve {
			if p.FreqMHz == staticMHz {
				return eff(p), false
			}
		}
		return eff(curve[len(curve)-1]), false
	}

	// PolicyModel: minimum predicted energy subject to the predicted
	// completion meeting the guarded deadline, at the effective (cap-aware)
	// speed, within the stretch bound.
	budgetS := (1 - guardFrac) * (deadlineS - startS)
	fastestS := eff(curve[len(curve)-1]).TimeS
	for _, p := range curve {
		if e := eff(p); e.TimeS < fastestS {
			fastestS = e.TimeS
		}
	}
	var best prediction
	found := false
	for _, p := range curve {
		e := eff(p)
		if e.TimeS > budgetS {
			continue
		}
		if e.TimeS > MaxStretch*fastestS {
			continue
		}
		if !found || e.EnergyJ < best.EnergyJ {
			best, found = e, true
		}
	}
	if found {
		return best, false
	}
	// No candidate meets the deadline: escalate to the fastest effective
	// clock to minimize the miss.
	fastest := curve[len(curve)-1]
	e := eff(fastest)
	for _, p := range curve {
		if c := eff(p); c.TimeS < e.TimeS {
			e = c
		}
	}
	return e, true
}
