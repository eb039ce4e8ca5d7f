package tuner

import (
	"fmt"
	"sort"

	"dsenergy/internal/core"
	"dsenergy/internal/kernels"
	"dsenergy/internal/ml"
	"dsenergy/internal/synergy"
)

// Profiler is a workload that exposes its kernel decomposition — both
// applications implement it. Per-kernel tuning needs the individual kernels
// because each one gets its own model and its own clock.
type Profiler interface {
	synergy.Workload
	Profiles() []kernels.Profile
}

// PerKernelTuner holds one domain-specific model per kernel of an
// application, so prediction — and therefore frequency selection — happens
// at kernel granularity, as SYnergy's per-kernel scaling requires.
type PerKernelTuner struct {
	Policy Policy
	models map[string]*core.Model
	freqs  []int
}

// TrainPerKernel measures every kernel of every featured workload separately
// across the frequency sweep and trains one normalized model per kernel
// name. All workloads must decompose into the same kernel set (they are
// instances of one application).
func TrainPerKernel(q *synergy.Queue, schema core.Schema, wls []core.FeaturedWorkload,
	cfg core.BuildConfig, spec ml.Spec, policy Policy, seed uint64) (*PerKernelTuner, error) {

	if policy == nil {
		return nil, fmt.Errorf("tuner: nil policy")
	}
	freqs := cfg.Freqs
	if freqs == nil {
		freqs = q.SupportedFreqsMHz()
	}

	// Group per-kernel datasets.
	datasets := map[string]*core.Dataset{}
	var kernelOrder []string
	for _, fw := range wls {
		prof, ok := fw.Workload.(Profiler)
		if !ok {
			return nil, fmt.Errorf("tuner: workload %s does not expose kernel profiles", fw.Workload.Name())
		}
		for _, kp := range prof.Profiles() {
			ds, ok := datasets[kp.Name]
			if !ok {
				ds = &core.Dataset{
					Schema:          schema,
					Device:          q.Spec().Name,
					BaselineFreqMHz: q.BaselineFreqMHz(),
				}
				datasets[kp.Name] = ds
				kernelOrder = append(kernelOrder, kp.Name)
			}
			ms, err := synergy.Sweep(q, synergy.Kernels{kp}, freqs, cfg.Reps)
			if err != nil {
				return nil, fmt.Errorf("tuner: measuring kernel %s: %w", kp.Name, err)
			}
			for _, m := range ms {
				ds.Samples = append(ds.Samples, core.Sample{
					Features: append([]float64(nil), fw.Features...),
					FreqMHz:  m.FreqMHz,
					TimeS:    m.TimeS,
					EnergyJ:  m.EnergyJ,
				})
			}
		}
	}

	t := &PerKernelTuner{
		Policy: policy,
		models: make(map[string]*core.Model, len(datasets)),
		freqs:  append([]int(nil), freqs...),
	}
	sort.Ints(t.freqs)
	sort.Strings(kernelOrder)
	for i, name := range kernelOrder {
		m, err := core.TrainNormalized(datasets[name], spec, seed+uint64(i))
		if err != nil {
			return nil, fmt.Errorf("tuner: training kernel %s: %w", name, err)
		}
		t.models[name] = m
	}
	return t, nil
}

// Kernels returns the tuned kernel names, sorted.
func (t *PerKernelTuner) Kernels() []string {
	out := make([]string, 0, len(t.models))
	for name := range t.models {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Plan is the per-kernel frequency assignment for one input.
type Plan struct {
	Features []float64
	// FreqByKernel maps each kernel name to its selected clock.
	FreqByKernel map[string]int
	// Predicted holds the policy's chosen point per kernel.
	Predicted map[string]core.CurvePoint
}

// PlanFor selects a frequency per kernel for the given input features.
func (t *PerKernelTuner) PlanFor(features []float64) (Plan, error) {
	if len(t.models) == 0 {
		return Plan{}, fmt.Errorf("tuner: no trained kernels")
	}
	plan := Plan{
		Features:     append([]float64(nil), features...),
		FreqByKernel: map[string]int{},
		Predicted:    map[string]core.CurvePoint{},
	}
	for name, m := range t.models {
		curve, err := m.AppendCurve(nil, features, t.freqs)
		if err != nil {
			return Plan{}, fmt.Errorf("tuner: kernel %s: %w", name, err)
		}
		choice := t.Policy.Select(curve)
		plan.FreqByKernel[name] = choice.FreqMHz
		plan.Predicted[name] = choice
	}
	return plan, nil
}

// Outcome reports the measured effect of running a workload under a plan,
// compared with running everything at the baseline clock.
type Outcome struct {
	BaselineTimeS   float64
	BaselineEnergyJ float64
	TunedTimeS      float64
	TunedEnergyJ    float64
}

// Speedup is baseline time over tuned time.
func (o Outcome) Speedup() float64 { return o.BaselineTimeS / o.TunedTimeS }

// EnergySaving is the fractional energy reduction.
func (o Outcome) EnergySaving() float64 { return 1 - o.TunedEnergyJ/o.BaselineEnergyJ }

// Execute runs the workload twice on q — once entirely at the baseline
// clock, once with each kernel submitted at its planned clock (SYnergy's
// per-kernel mode) — and returns both observations.
func (t *PerKernelTuner) Execute(q *synergy.Queue, w Profiler, plan Plan, reps int) (Outcome, error) {
	if reps <= 0 {
		reps = 1
	}
	var o Outcome
	base := q.BaselineFreqMHz()
	for r := 0; r < reps; r++ {
		for _, kp := range w.Profiles() {
			res, err := q.SubmitAt(kp, base)
			if err != nil {
				return Outcome{}, err
			}
			o.BaselineTimeS += res.TimeS
			o.BaselineEnergyJ += res.EnergyJ

			f, ok := plan.FreqByKernel[kp.Name]
			if !ok {
				return Outcome{}, fmt.Errorf("tuner: plan has no frequency for kernel %s", kp.Name)
			}
			res, err = q.SubmitAt(kp, f)
			if err != nil {
				return Outcome{}, err
			}
			o.TunedTimeS += res.TimeS
			o.TunedEnergyJ += res.EnergyJ
		}
	}
	n := float64(reps)
	o.BaselineTimeS /= n
	o.BaselineEnergyJ /= n
	o.TunedTimeS /= n
	o.TunedEnergyJ /= n
	return o, nil
}
