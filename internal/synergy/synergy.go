// Package synergy provides a portable energy-profiling and frequency-scaling
// API over simulated GPUs, reproducing the role of the SYnergy library the
// paper uses: a single vendor-neutral interface wrapping NVML (NVIDIA) and
// ROCm-SMI (AMD) that can enumerate devices, scale the core clock, submit
// kernels, and attribute energy to each submission — including per-kernel
// frequency scaling, the capability the paper's future work builds on.
package synergy

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"dsenergy/internal/faults"
	"dsenergy/internal/gpusim"
	"dsenergy/internal/kernels"
	"dsenergy/internal/obs"
	"dsenergy/internal/parallel"
)

// Platform owns the set of visible devices. It mirrors SYnergy's runtime,
// which discovers every GPU reachable through the vendor libraries.
type Platform struct {
	mu      sync.Mutex
	devices []*Queue
}

// NewPlatform builds a platform exposing one queue per spec, with device
// noise generators derived from seed so that independent platforms constructed
// with the same seed observe identical measurements. Device names must be
// unique: they label every metric and report row above this layer, and a
// duplicate would make those silently ambiguous.
func NewPlatform(seed uint64, specs ...gpusim.Spec) (*Platform, error) {
	p := &Platform{}
	seen := make(map[string]bool, len(specs))
	for i, s := range specs {
		if seen[s.Name] {
			return nil, fmt.Errorf("synergy: duplicate device name %q (device %d); device names must be unique", s.Name, i)
		}
		seen[s.Name] = true
		d, err := gpusim.New(s, seed+uint64(i)*0x51_7c_c1b7_2722_0a95)
		if err != nil {
			return nil, err
		}
		p.devices = append(p.devices, &Queue{dev: d})
	}
	return p, nil
}

// SetObserver attaches an observability sink to every queue of the
// platform (nil detaches). Call before measurements start.
func (p *Platform) SetObserver(o *obs.Observer) {
	for _, q := range p.Queues() {
		q.SetObserver(o)
	}
}

// Queues returns the device queues in discovery order.
func (p *Platform) Queues() []*Queue {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Queue, len(p.devices))
	copy(out, p.devices)
	return out
}

// Event records one profiled kernel submission, in the style of SYnergy's
// per-kernel energy events. FreqMHz is the clock the submission actually ran
// at: with a thermal-throttle window active it is below the requested clock,
// so event logs (and everything trained on them) stay truthful under
// throttling.
type Event struct {
	Kernel  string
	FreqMHz int
	TimeS   float64
	EnergyJ float64
	// Faulted marks a submission aborted by an injected fault; TimeS and
	// EnergyJ then hold the partial cost burned before the abort.
	Faulted bool
}

// Queue is an in-order execution queue bound to one device, with per-kernel
// energy attribution. Queue is safe for concurrent use; submissions are
// serialized, which models the single hardware queue the paper profiles.
type Queue struct {
	mu     sync.Mutex
	dev    *gpusim.Device
	events []Event
	// pinned, when non-zero, is the frequency applied to every submission
	// (the paper's per-application scaling mode).
	pinned int
	// inj, when non-nil, is consulted before every submission and clock set
	// (fault injection); nil queues follow the exact fault-free code path.
	inj   *faults.DeviceInjector
	stats FaultStats
	// obsv carries the queue's trace stream (forked per sweep clone, absorbed
	// in task order); om holds the metric handles, resolved once in
	// SetObserver and shared by every clone. Both are no-ops when unset.
	obsv *obs.Observer
	om   queueObsHandles
}

// queueObsHandles are the pre-resolved metric handles of one device queue.
// The zero value (all-nil handles) disables every increment.
type queueObsHandles struct {
	transient    *obs.Counter
	permanent    *obs.Counter
	throttled    *obs.Counter
	clockRejects *obs.Counter
	measurements *obs.Counter
	wasted       *obs.Histogram
}

// wastedTimeBounds buckets the simulated seconds burned by aborted
// submissions (spanning microsecond kernels to multi-second workloads).
var wastedTimeBounds = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10}

// SetObserver attaches an observability sink to the queue and its device:
// fault/throttle/clock-reject counters, a wasted-time histogram, and the
// trace stream sweep spans are recorded on. All derived totals are
// functions of the injector's pre-split fault streams, so they are
// deterministic and live in the stable tier. Call before the queue is used
// from worker goroutines; a nil observer detaches.
func (q *Queue) SetObserver(o *obs.Observer) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.obsv = o
	if o == nil {
		q.om = queueObsHandles{}
		q.dev.SetObserver(nil)
		return
	}
	m := o.Metrics()
	dl := obs.L("device", q.dev.Spec().Name)
	q.om = queueObsHandles{
		transient:    m.Counter("synergy_faults_transient_total", dl),
		permanent:    m.Counter("synergy_faults_permanent_total", dl),
		throttled:    m.Counter("synergy_throttled_submissions_total", dl),
		clockRejects: m.Counter("synergy_clock_rejects_total", dl),
		measurements: m.Counter("synergy_measurements_total", dl),
		wasted:       m.Histogram("synergy_wasted_time_seconds", wastedTimeBounds, dl),
	}
	q.dev.SetObserver(o)
}

// FaultStats aggregates the injected faults a queue has observed.
type FaultStats struct {
	Transient     int // retryable kernel faults
	Permanent     int // submissions failed on a dead device (first one included)
	Throttled     int // submissions run below the requested clock
	ClockRejects  int // rejected SetCoreFreq calls
	WastedTimeS   float64
	WastedEnergyJ float64
}

// Spec returns the device description.
func (q *Queue) Spec() gpusim.Spec { return q.dev.Spec() }

// SupportedFreqsMHz returns the device's selectable core frequencies.
func (q *Queue) SupportedFreqsMHz() []int {
	fs := q.dev.Spec().CoreFreqsMHz
	out := make([]int, len(fs))
	copy(out, fs)
	return out
}

// SetCoreFreqMHz pins every subsequent submission to the given core clock.
// With a fault injector attached the set can be rejected (flaky vendor
// library) or fail permanently (dead device); the previous clock is kept.
func (q *Queue) SetCoreFreqMHz(mhz int) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.dev.HasFreq(mhz) {
		return fmt.Errorf("synergy: %s: unsupported frequency %d MHz", q.dev.Spec().Name, mhz)
	}
	if q.inj != nil {
		if err := q.inj.OnClockSet(); err != nil {
			q.stats.ClockRejects++
			q.om.clockRejects.Inc()
			return fmt.Errorf("synergy: %s: setting %d MHz: %w", q.dev.Spec().Name, mhz, err)
		}
	}
	q.pinned = mhz
	return q.dev.SetCoreFreqMHz(mhz)
}

// PinnedFreqMHz returns the currently pinned clock (0 when the queue runs at
// the vendor baseline). Cluster-wide frequency control uses it to roll back
// partially applied settings.
func (q *Queue) PinnedFreqMHz() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.pinned
}

// SetFaultInjector attaches a per-device fault injector consulted on every
// submission and clock set; nil detaches it. Queues without an injector
// follow the exact fault-free execution path, so attaching an empty fault
// plan is indistinguishable from never attaching one.
func (q *Queue) SetFaultInjector(inj *faults.DeviceInjector) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.inj = inj
}

// ResetFrequency restores the vendor baseline (NVIDIA default clock or AMD
// auto performance level).
func (q *Queue) ResetFrequency() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.pinned = 0
	q.dev.ResetCoreFreq()
}

// BaselineFreqMHz returns the frequency used as the 1.0 speedup baseline.
func (q *Queue) BaselineFreqMHz() int { return q.dev.Spec().BaselineFreqMHz() }

// Submit runs the kernel profile at the queue's current frequency, records an
// energy event, and returns the observation.
func (q *Queue) Submit(p kernels.Profile) (gpusim.Result, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.inj != nil {
		return q.submitInjected(p, q.dev.CoreFreqMHz())
	}
	r, err := q.dev.Run(p)
	if err != nil {
		return gpusim.Result{}, err
	}
	q.events = append(q.events, Event{
		Kernel: p.Name, FreqMHz: q.dev.CoreFreqMHz(),
		TimeS: r.TimeS, EnergyJ: r.EnergyJ,
	})
	return r, nil
}

// SubmitAt runs the kernel at an explicit per-kernel frequency without
// disturbing the queue's pinned clock — SYnergy's per-kernel scaling mode.
func (q *Queue) SubmitAt(p kernels.Profile, mhz int) (gpusim.Result, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.inj != nil {
		if !q.dev.HasFreq(mhz) {
			return gpusim.Result{}, fmt.Errorf("synergy: %s: unsupported frequency %d MHz", q.dev.Spec().Name, mhz)
		}
		return q.submitInjected(p, mhz)
	}
	r, err := q.dev.RunAt(p, mhz)
	if err != nil {
		return gpusim.Result{}, err
	}
	q.events = append(q.events, Event{Kernel: p.Name, FreqMHz: mhz, TimeS: r.TimeS, EnergyJ: r.EnergyJ})
	return r, nil
}

// submitInjected is the fault-aware submission path: it consults the
// injector, applies any thermal-throttle cap to the effective clock, charges
// partially executed work on an abort, and logs a truthful event either way.
// Called with q.mu held.
func (q *Queue) submitInjected(p kernels.Profile, mhz int) (gpusim.Result, error) {
	dec := q.inj.OnSubmit()
	eff := mhz
	if dec.CapMHz > 0 && dec.CapMHz < eff {
		eff = q.dev.Spec().FloorFreqMHz(dec.CapMHz)
		q.stats.Throttled++
		q.om.throttled.Inc()
	}
	if dec.Err != nil {
		if faults.IsTransient(dec.Err) {
			q.stats.Transient++
			q.om.transient.Inc()
		} else {
			q.stats.Permanent++
			q.om.permanent.Inc()
		}
		// The aborted attempt still burned time and energy up to the fault
		// point. Charge the noiseless partial cost: it keeps the energy
		// counter truthful without consuming measurement-noise draws, so the
		// noise stream (and with it every later observation) is unaffected
		// by whether an abort happened before it.
		if err := p.Validate(); err != nil {
			return gpusim.Result{}, err
		}
		b := q.dev.Analytic(p, eff)
		wastedTimeS := b.TimeS * dec.Frac
		wastedEnergyJ := b.EnergyJ * dec.Frac
		q.dev.AddEnergyJ(wastedEnergyJ)
		q.stats.WastedTimeS += wastedTimeS
		q.stats.WastedEnergyJ += wastedEnergyJ
		q.om.wasted.Observe(wastedTimeS)
		q.events = append(q.events, Event{
			Kernel: p.Name, FreqMHz: eff,
			TimeS: wastedTimeS, EnergyJ: wastedEnergyJ, Faulted: true,
		})
		return gpusim.Result{}, fmt.Errorf("synergy: %s: %s: %w", q.dev.Spec().Name, p.Name, dec.Err)
	}
	r, err := q.dev.RunAt(p, eff)
	if err != nil {
		return gpusim.Result{}, err
	}
	q.events = append(q.events, Event{Kernel: p.Name, FreqMHz: eff, TimeS: r.TimeS, EnergyJ: r.EnergyJ})
	return r, nil
}

// EventCount returns the number of events recorded so far. Together with
// AppendEventsFrom it lets a caller attribute the cost of a span of
// submissions (e.g. one failed workload attempt) without draining the log.
func (q *Queue) EventCount() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.events)
}

// AppendEventsFrom appends the events recorded at or after index from to dst
// and returns the extended slice, so a caller reading one span per dispatch
// can reuse one buffer.
func (q *Queue) AppendEventsFrom(dst []Event, from int) []Event {
	q.mu.Lock()
	defer q.mu.Unlock()
	if from < 0 {
		from = 0
	}
	if from >= len(q.events) {
		return dst
	}
	return append(dst, q.events[from:]...)
}

// TruncateEvents drops the events recorded at or after index n: a caller
// that has read a span of submissions and keeps its own books releases the
// span instead of letting the log grow for the queue's lifetime.
func (q *Queue) TruncateEvents(n int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if n < 0 {
		n = 0
	}
	if n < len(q.events) {
		clear(q.events[n:])
		q.events = q.events[:n]
	}
}

// EnergyCounterJ exposes the device's cumulative energy counter.
func (q *Queue) EnergyCounterJ() float64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.dev.EnergyCounterJ()
}

// KernelProfiler is implemented by workloads that can enumerate their kernel
// profiles without running them (both applications can). Sweeps use it to
// publish each kernel's dense analytic curve once, up front, so parallel
// workers only ever take the lock-free cache read path.
type KernelProfiler interface {
	Profiles() []kernels.Profile
}

// warmAnalytic precompiles the analytic curves of w's kernels at freqs on
// the shared device cache. Purely an amortization: the model is a pure
// function, so warming changes no measurement, no noise draw and no event —
// it only moves the one-time compile+publish of each profile out of the
// measured (possibly parallel) region.
func (q *Queue) warmAnalytic(w Workload, freqs []int) {
	pr, ok := w.(KernelProfiler)
	if !ok {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, p := range pr.Profiles() {
		q.dev.AnalyzeCurve(p, freqs)
	}
}

// Measurement is an averaged observation of a workload at one frequency.
// FreqMHz is the requested clock; EffFreqMHz is the lowest clock any
// submission of the measurement actually ran at. The two differ only when a
// thermal-throttle window silently capped the device — reporting the
// effective clock keeps online tuners and model-training datasets from being
// polluted by capped probes mislabeled with the requested frequency.
type Measurement struct {
	FreqMHz    int
	EffFreqMHz int
	TimeS      float64
	EnergyJ    float64
}

// Workload is anything that can run on a queue and report aggregate time and
// energy — both applications implement it. The paper's training harness
// launches a workload repeatedly while sweeping the clock.
type Workload interface {
	// Name identifies the workload in reports.
	Name() string
	// RunOn executes the whole workload on q at q's current frequency and
	// returns total wall time and energy.
	RunOn(q *Queue) (timeS, energyJ float64, err error)
}

// Kernels is a workload given as its kernel list: RunOn submits the kernels
// in order at q's current frequency and sums their time and energy. Both
// applications run through it, and one kernel alone is a one-element list.
type Kernels []kernels.Profile

// Name implements Workload: the kernel names joined with "+".
func (k Kernels) Name() string {
	if len(k) == 1 {
		return k[0].Name
	}
	names := make([]string, len(k))
	for i, p := range k {
		names[i] = p.Name
	}
	return strings.Join(names, "+")
}

// RunOn implements Workload.
func (k Kernels) RunOn(q *Queue) (timeS, energyJ float64, err error) {
	for _, p := range k {
		r, err := q.Submit(p)
		if err != nil {
			return 0, 0, err
		}
		timeS += r.TimeS
		energyJ += r.EnergyJ
	}
	return timeS, energyJ, nil
}

// AnalyticOn sums the kernels' noiseless model time and energy on dev at the
// given core frequency, in list order.
func (k Kernels) AnalyticOn(dev *gpusim.Device, mhz int) (timeS, energyJ float64) {
	for _, p := range k {
		r := dev.Analytic(p, mhz)
		timeS += r.TimeS
		energyJ += r.EnergyJ
	}
	return timeS, energyJ
}

// AnalyticCurveOn evaluates the noiseless model at every frequency in freqs,
// one compiled-profile lookup per kernel for the whole list. Each frequency
// sums the kernels in list order, so timesS[i] and energiesJ[i] equal
// AnalyticOn(dev, freqs[i]) bit for bit.
func (k Kernels) AnalyticCurveOn(dev *gpusim.Device, freqs []int) (timesS, energiesJ []float64) {
	timesS = make([]float64, len(freqs))
	energiesJ = make([]float64, len(freqs))
	for _, p := range k {
		for i, b := range dev.AnalyzeCurve(p, freqs) {
			timesS[i] += b.TimeS
			energiesJ[i] += b.EnergyJ
		}
	}
	return timesS, energiesJ
}

// MeasureAt runs w on q at the given frequency reps times and returns the
// mean observation, reproducing the paper's five-repetition protocol.
func MeasureAt(q *Queue, w Workload, mhz, reps int) (Measurement, error) {
	if reps <= 0 {
		reps = 1
	}
	if err := q.SetCoreFreqMHz(mhz); err != nil {
		return Measurement{}, err
	}
	defer q.ResetFrequency()
	first := q.EventCount()
	var sumT, sumE float64
	for i := 0; i < reps; i++ {
		t, e, err := w.RunOn(q)
		if err != nil {
			return Measurement{}, fmt.Errorf("synergy: measuring %s at %d MHz: %w", w.Name(), mhz, err)
		}
		sumT += t
		sumE += e
	}
	// The effective clock is the lowest clock any submission ran at: equal
	// to the request on a healthy device, below it inside a throttle window.
	effMHz := mhz
	for _, ev := range q.AppendEventsFrom(nil, first) {
		if ev.FreqMHz < effMHz {
			effMHz = ev.FreqMHz
		}
	}
	n := float64(reps)
	// One span per measurement, on simulated time: the duration is the total
	// simulated seconds across the repetitions, so the trace is a pure
	// function of the measured workload, never of the host machine.
	q.obsv.Trace().Add("synergy.measure", sumT,
		obs.L("device", q.dev.Spec().Name),
		obs.L("workload", w.Name()),
		obs.L("freq_mhz", strconv.Itoa(mhz)),
		obs.L("reps", strconv.Itoa(reps)))
	q.om.measurements.Inc()
	return Measurement{FreqMHz: mhz, EffFreqMHz: effMHz, TimeS: sumT / n, EnergyJ: sumE / n}, nil
}

// sweepTask pairs one requested frequency with the private queue clone that
// will measure it.
type sweepTask struct {
	freq  int
	clone *Queue
}

// forkSweepTasks derives one private queue clone per frequency, in frequency
// order, under the parent's lock. Each clone gets a forked device (split
// noise stream, fresh energy counter, shared analytic cache) and — when fault
// injection is active — a forked per-device injector, so every frequency's
// stochastic state is fixed here, before any task reaches a worker pool.
// This is the pre-split step of the determinism contract: a clone's draws
// depend only on its position in freqs, never on scheduling.
func (q *Queue) forkSweepTasks(freqs []int) []sweepTask {
	q.mu.Lock()
	defer q.mu.Unlock()
	tasks := make([]sweepTask, len(freqs))
	for i, f := range freqs {
		// Metric handles are shared (order-invariant accumulation); the trace
		// is forked per clone and absorbed back in task order, exactly like
		// the RNG and fault streams.
		clone := &Queue{dev: q.dev.Fork(), pinned: q.pinned, obsv: q.obsv.Fork(), om: q.om}
		if q.inj != nil {
			clone.inj = q.inj.Fork()
		}
		tasks[i] = sweepTask{freq: f, clone: clone}
	}
	return tasks
}

// absorbSweep folds the clones' observable state back into q in task order:
// event logs concatenate, energy counters and fault statistics accumulate,
// and injector state merges. Because absorption is ordered by task index, the
// parent's state after a sweep is independent of how the pool scheduled it.
func (q *Queue) absorbSweep(tasks []sweepTask) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, t := range tasks {
		c := t.clone
		q.events = append(q.events, c.events...)
		q.dev.AddEnergyJ(c.dev.EnergyCounterJ())
		q.stats.absorb(c.stats)
		if q.inj != nil && c.inj != nil {
			q.inj.Absorb(c.inj)
		}
		if q.obsv != nil && c.obsv != nil {
			q.obsv.Trace().Absorb(c.obsv.Trace())
		}
	}
}

// absorb accumulates another queue's fault counters into s.
func (s *FaultStats) absorb(o FaultStats) {
	s.Transient += o.Transient
	s.Permanent += o.Permanent
	s.Throttled += o.Throttled
	s.ClockRejects += o.ClockRejects
	s.WastedTimeS += o.WastedTimeS
	s.WastedEnergyJ += o.WastedEnergyJ
}

// sweep is the shared engine behind Sweep and ParallelSweep: fork one clone
// per frequency, measure every frequency on its own clone (serially or on a
// worker pool — the bytes are identical either way), then absorb the clones
// back in frequency order. On any error nothing is absorbed: the parent
// queue is left exactly as it was, so even failed sweeps are deterministic
// regardless of which tasks happened to run before cancellation.
func sweep(q *Queue, w Workload, freqs []int, reps, workers int) ([]Measurement, error) {
	q.warmAnalytic(w, freqs)
	tasks := q.forkSweepTasks(freqs)
	out := make([]Measurement, len(freqs))
	err := parallel.ForEachChunked(context.Background(), len(tasks), workers, 0, func(_ context.Context, lo, hi int) error {
		for i := lo; i < hi; i++ {
			m, err := MeasureAt(tasks[i].clone, w, tasks[i].freq, reps)
			if err != nil {
				return err
			}
			out[i] = m
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	q.absorbSweep(tasks)
	return out, nil
}

// Sweep measures w at every frequency in freqs (reps repetitions each) and
// returns the observations in the same order. Each frequency runs on a
// private clone of q forked in frequency order, so Sweep's output is defined
// purely by (queue state, workload, freqs, reps) — ParallelSweep produces the
// same bytes from the same inputs.
func Sweep(q *Queue, w Workload, freqs []int, reps int) ([]Measurement, error) {
	return sweep(q, w, freqs, reps, 1)
}

// ParallelSweep is Sweep on a bounded worker pool: workers <= 0 selects
// GOMAXPROCS, workers == 1 is exactly Sweep. The per-frequency clones are
// forked before the pool starts, so the measurements, the parent queue's
// event log, its energy counter and its fault statistics are byte-identical
// to the serial sweep for every worker count and schedule.
func ParallelSweep(q *Queue, w Workload, freqs []int, reps, workers int) ([]Measurement, error) {
	return sweep(q, w, freqs, reps, workers)
}

// forkWorkloadTasks pre-splits clones for a multi-workload sweep set: for
// each workload, in order, one clone per frequency. All forking happens here,
// before any measurement, so SweepSet's task pool can interleave workloads
// freely while drawing exactly the split sequence a sequence of Sweep calls
// would have drawn.
func forkWorkloadTasks(q *Queue, workloads int, freqs []int) [][]sweepTask {
	sets := make([][]sweepTask, workloads)
	for i := range sets {
		sets[i] = q.forkSweepTasks(freqs)
	}
	return sets
}

// SweepSet sweeps several workloads over the same frequency grid through one
// shared worker pool and returns per-workload measurement slices in input
// order. It is byte-identical to calling Sweep(q, w, freqs, reps) for each
// workload in order — the clones are forked workload-by-workload up front,
// and absorbed workload-by-workload afterwards — but exposes all
// len(workloads)×len(freqs) tasks to the pool at once, which is what makes
// dataset generation scale past the per-sweep task count.
func SweepSet(q *Queue, workloads []Workload, freqs []int, reps, workers int) ([][]Measurement, error) {
	for _, w := range workloads {
		q.warmAnalytic(w, freqs)
	}
	sets := forkWorkloadTasks(q, len(workloads), freqs)
	nf := len(freqs)
	out := make([][]Measurement, len(workloads))
	for i := range out {
		out[i] = make([]Measurement, nf)
	}
	err := parallel.ForEachChunked(context.Background(), len(workloads)*nf, workers, 0, func(_ context.Context, lo, hi int) error {
		for ti := lo; ti < hi; ti++ {
			wi, fi := ti/nf, ti%nf
			t := sets[wi][fi]
			m, err := MeasureAt(t.clone, workloads[wi], t.freq, reps)
			if err != nil {
				return err
			}
			out[wi][fi] = m
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, set := range sets {
		q.absorbSweep(set)
	}
	return out, nil
}
