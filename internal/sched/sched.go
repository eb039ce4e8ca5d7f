// Package sched is a deterministic, discrete-event, deadline-aware
// multi-tenant scheduler over the resilient cluster. It closes the loop the
// paper leaves open: the trained domain-specific models (internal/core)
// predict time and energy per frequency, and the scheduler spends those
// predictions online — per job, against a deadline, on a cluster where
// devices die, throttle and reject clock sets (internal/faults).
//
// The design follows Ilager et al. (arXiv:2004.08177): jobs arrive with
// deadlines, the learned energy model picks the per-job GPU frequency, and
// the policy is evaluated against max-frequency and static-clock baselines
// on deadline misses and total energy. The robustness machinery is the
// point:
//
//   - admission control rejects jobs whose predicted completion cannot meet
//     the deadline on any surviving device, and bounds each tenant's queue
//     (backpressure instead of unbounded growth);
//   - dispatch is earliest-deadline-first; when no candidate clock meets the
//     deadline the job escalates to the fastest effective clock, and a job
//     that would miss on a throttled or backlogged device defers to a device
//     predicted to meet it (the migration path);
//   - transient kernel faults retry with capped exponential backoff under a
//     per-job retry budget and a busy-time timeout budget;
//   - a permanent device loss marks the device dead, requeues the in-flight
//     job to the survivors and re-admits all queued work against the reduced
//     capacity (graceful degradation, down to the last device);
//   - a thermal-throttle window observed on a device (EffFreqMHz below the
//     commanded clock) re-tunes later decisions on that device to the capped
//     speed until a run at full speed clears the cap.
//
// Everything runs on simulated time in one goroutine: events are ordered by
// (time, push order) in an internal/eventq queue, every stochastic draw
// comes from the per-device seeded streams the queues already own, and the
// SLO report is byte-identical across runs and worker counts.
package sched

import (
	"fmt"
	"slices"
	"strconv"

	"dsenergy/internal/cluster"
	"dsenergy/internal/eventq"
	"dsenergy/internal/faults"
	"dsenergy/internal/obs"
	"dsenergy/internal/synergy"
)

// Config parameterizes a scheduler run. Zero fields select the documented
// defaults.
type Config struct {
	// Policy selects the frequency-choice strategy (default PolicyModel).
	Policy Policy
	// StaticFreqMHz is PolicyStatic's pinned clock (default the first
	// device's baseline frequency).
	StaticFreqMHz int
	// Freqs are the candidate clocks, ascending (required, non-empty; every
	// entry must be supported by the devices). The models are consulted at
	// exactly these clocks.
	Freqs []int
	// Models are the trained per-application predictors (required — every
	// policy shares the model-driven admission control).
	Models *ModelSet
	// MaxQueuedPerTenant bounds each tenant's waiting queue; arrivals over
	// the bound are rejected (default 16).
	MaxQueuedPerTenant int
	// MaxRetries is the per-job transient-fault retry budget (default 3).
	MaxRetries int
	// BackoffBaseS/BackoffFactor/BackoffCapS shape the capped exponential
	// retry backoff (defaults 0.01 s, 2, 0.1 s). Backoff occupies the device
	// at idle power.
	BackoffBaseS  float64
	BackoffFactor float64
	BackoffCapS   float64
	// TimeoutFactor caps a job's cumulative busy time (attempts + backoff)
	// at TimeoutFactor x its nominal f_max time; exceeding it abandons the
	// job (default 16).
	TimeoutFactor float64
	// SlackGuardFrac is the fraction of a job's remaining slack PolicyModel
	// reserves as a guard band when choosing a clock: the predicted
	// completion must land that far before the deadline, absorbing
	// prediction error and retry backoff (default 0.25; negative disables
	// the guard). Baseline policies ignore it — their clock is fixed.
	SlackGuardFrac float64
	// QueueGuardFrac widens PolicyModel's guard band by this much per job
	// waiting in the ready queue at decision time (default 0.05; negative
	// disables). A slow clock under backlog delays every queued job behind
	// it, so the policy races toward the fastest clock exactly when work is
	// waiting and spends its slack on down-clocking only into spare
	// capacity. The combined guard saturates below 1.
	QueueGuardFrac float64
	// MaxStretch bounds how far PolicyModel may stretch a job past its
	// fastest effective clock: candidates predicted slower than MaxStretch
	// x the fastest candidate's time are excluded (default 1.6; negative
	// disables; values in (0,1) are rejected). Dispatch is non-preemptive,
	// so an unbounded down-clock turns one cheap job into a long blockade
	// for whatever arrives behind it.
	MaxStretch float64
	// CapProbeEvery makes every Nth run commanded at or below a device's
	// observed thermal cap probe at the fastest candidate clock instead
	// (default 8; negative disables). A policy that keeps commanding under
	// the cap would otherwise never observe the throttle window ending and
	// would re-tune conservatively forever; policies that command above the
	// cap probe implicitly and never trigger this.
	CapProbeEvery int
	// Obs is an optional observability sink: scheduler counters and one
	// span per job outcome, all on simulated time.
	Obs *obs.Observer
}

func (c Config) withDefaults(baselineMHz int) Config {
	if c.StaticFreqMHz == 0 {
		c.StaticFreqMHz = baselineMHz
	}
	if c.MaxQueuedPerTenant == 0 {
		c.MaxQueuedPerTenant = 16
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.BackoffBaseS == 0 {
		c.BackoffBaseS = 0.01
	}
	if c.BackoffFactor == 0 {
		c.BackoffFactor = 2
	}
	if c.BackoffCapS == 0 {
		c.BackoffCapS = 0.1
	}
	if c.TimeoutFactor == 0 {
		c.TimeoutFactor = 16
	}
	if c.SlackGuardFrac == 0 {
		c.SlackGuardFrac = 0.25
	}
	if c.SlackGuardFrac < 0 {
		c.SlackGuardFrac = 0
	}
	if c.QueueGuardFrac == 0 {
		c.QueueGuardFrac = 0.05
	}
	if c.QueueGuardFrac < 0 {
		c.QueueGuardFrac = 0
	}
	if c.MaxStretch == 0 {
		c.MaxStretch = 1.6
	}
	if c.MaxStretch < 0 {
		c.MaxStretch = 0
	}
	if c.CapProbeEvery == 0 {
		c.CapProbeEvery = 8
	}
	if c.CapProbeEvery < 0 {
		c.CapProbeEvery = 0
	}
	return c
}

// event kinds of the discrete-event loop.
const (
	evArrival = iota
	evFree
	evRequeue
)

// event is one entry of the simulated-time event queue, which orders
// events by (time, push order).
type event struct {
	kind int
	job  int // job index (evArrival, evRequeue)
	dev  int // device index (evFree)
}

// jobState tracks one admitted job through the scheduler.
type jobState struct {
	job      Job
	curve    []prediction
	retries  int     // transient retries consumed (per-job budget)
	busyS    float64 // cumulative busy time across attempts and devices
	requeues int     // failover requeues survived
	deferred bool    // declined at least one idle device on deadline grounds
	lastDev  int     // device of the last attempt (-1 before the first)
}

// schedObsHandles are the scheduler's pre-resolved metric handles; the zero
// value disables every increment.
type schedObsHandles struct {
	admitted  *obs.Counter
	rejected  *obs.Counter
	completed *obs.Counter
	missed    *obs.Counter
	failed    *obs.Counter
	shed      *obs.Counter
	retries   *obs.Counter
	failovers *obs.Counter
	requeues  *obs.Counter
	retunes   *obs.Counter
	escalated *obs.Counter
}

// Scheduler executes job streams on a resilient cluster. Build one per
// campaign with New; Run consumes it (the underlying queues accumulate
// state, so a fresh campaign needs a fresh cluster).
type Scheduler struct {
	cfg    Config
	cl     *cluster.Cluster
	queues []*synergy.Queue
	idleW  float64

	events eventq.Queue[event]
	ready  []*jobState // EDF order: (deadline, job ID)

	// pendingRequeue holds jobs knocked off a dead device, consumed FIFO by
	// their evRequeue events (events and pushes share one order).
	pendingRequeue []*jobState

	freeAtS    []float64 // per-device time of last scheduled completion
	busyDev    []bool    // device currently executing
	busyS      []float64 // per-device occupied time (attempts + backoff)
	deathS     []float64 // per-device death time (dead devices only)
	capMHz     []int     // observed thermal cap (0 = none)
	cappedRuns []int     // consecutive runs commanded at/below the cap

	queuedByTenant map[string]int
	rep            *Report
	obsv           *obs.Observer
	om             schedObsHandles
}

// New builds a scheduler over the cluster. The cluster's fault plan (if any)
// must already be attached via SetFaultPlan.
func New(cl *cluster.Cluster, cfg Config) (*Scheduler, error) {
	queues := cl.Queues()
	if len(queues) == 0 {
		return nil, fmt.Errorf("sched: empty cluster")
	}
	if len(cfg.Freqs) == 0 {
		return nil, fmt.Errorf("sched: no candidate frequencies")
	}
	if !slices.IsSorted(cfg.Freqs) {
		return nil, fmt.Errorf("sched: candidate frequencies must be ascending")
	}
	if cfg.Models == nil {
		return nil, fmt.Errorf("sched: Models is required (admission control is model-driven)")
	}
	spec := queues[0].Spec()
	for _, f := range cfg.Freqs {
		if !spec.HasFreq(f) {
			return nil, fmt.Errorf("sched: device %s does not support %d MHz", spec.Name, f)
		}
	}
	cfg = cfg.withDefaults(queues[0].BaselineFreqMHz())
	if cfg.Policy == PolicyStatic && !slices.Contains(cfg.Freqs, cfg.StaticFreqMHz) {
		return nil, fmt.Errorf("sched: static clock %d MHz is not a candidate frequency", cfg.StaticFreqMHz)
	}
	if cfg.SlackGuardFrac >= 1 {
		return nil, fmt.Errorf("sched: SlackGuardFrac %g must be below 1", cfg.SlackGuardFrac)
	}
	if cfg.MaxStretch > 0 && cfg.MaxStretch < 1 {
		return nil, fmt.Errorf("sched: MaxStretch %g must be at least 1 (or negative to disable)", cfg.MaxStretch)
	}
	s := &Scheduler{
		cfg:            cfg,
		cl:             cl,
		queues:         queues,
		idleW:          spec.IdleW,
		freeAtS:        make([]float64, len(queues)),
		busyDev:        make([]bool, len(queues)),
		busyS:          make([]float64, len(queues)),
		deathS:         make([]float64, len(queues)),
		capMHz:         make([]int, len(queues)),
		cappedRuns:     make([]int, len(queues)),
		queuedByTenant: make(map[string]int),
		obsv:           cfg.Obs,
	}
	if cfg.Obs != nil {
		m := cfg.Obs.Metrics()
		pl := obs.L("policy", cfg.Policy.String())
		s.om = schedObsHandles{
			admitted:  m.Counter("sched_admitted_total", pl),
			rejected:  m.Counter("sched_rejected_total", pl),
			completed: m.Counter("sched_completed_total", pl),
			missed:    m.Counter("sched_deadline_miss_total", pl),
			failed:    m.Counter("sched_failed_total", pl),
			shed:      m.Counter("sched_shed_total", pl),
			retries:   m.Counter("sched_retries_total", pl),
			failovers: m.Counter("sched_failovers_total", pl),
			requeues:  m.Counter("sched_requeued_total", pl),
			retunes:   m.Counter("sched_throttle_retunes_total", pl),
			escalated: m.Counter("sched_escalations_total", pl),
		}
	}
	return s, nil
}

// guard is PolicyModel's effective slack-guard fraction when `waiting`
// other jobs sit in the ready queue.
func (s *Scheduler) guard(waiting int) float64 {
	g := s.cfg.SlackGuardFrac + s.cfg.QueueGuardFrac*float64(waiting)
	if g > 0.9 {
		g = 0.9
	}
	return g
}

// alive reports whether any device survives.
func (s *Scheduler) alive() bool {
	for i := range s.queues {
		if !s.dead(i) {
			return true
		}
	}
	return false
}

func (s *Scheduler) dead(i int) bool { return s.deathS[i] > 0 }

// Run executes the job stream to completion and returns the SLO report.
// Jobs may be in any order; they are admitted at their arrival times.
func (s *Scheduler) Run(jobs []Job) (*Report, error) {
	if s.rep != nil {
		return nil, fmt.Errorf("sched: scheduler already ran; build a fresh one per campaign")
	}
	s.rep = newReport(s.cfg, len(s.queues))
	states := make([]*jobState, len(jobs))
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	// Admit in (arrival, ID) order whatever the caller's slice order.
	slices.SortFunc(order, func(a, b int) int {
		if jobs[a].ArrivalS < jobs[b].ArrivalS {
			return -1
		}
		if jobs[b].ArrivalS < jobs[a].ArrivalS {
			return 1
		}
		return jobs[a].ID - jobs[b].ID
	})
	for _, i := range order {
		states[i] = &jobState{job: jobs[i], lastDev: -1}
		s.events.Push(jobs[i].ArrivalS, event{kind: evArrival, job: i})
	}

	for s.events.Len() > 0 {
		now, e := s.events.Pop()
		switch e.kind {
		case evArrival:
			if err := s.admit(states[e.job], now); err != nil {
				return nil, err
			}
		case evFree:
			s.busyDev[e.dev] = false
			if err := s.dispatchIdle(now); err != nil {
				return nil, err
			}
		case evRequeue:
			js := s.pendingRequeue[0]
			s.pendingRequeue = s.pendingRequeue[1:]
			s.enqueue(js)
			s.reAdmit(now)
			if err := s.dispatchIdle(now); err != nil {
				return nil, err
			}
		}
		if now > s.rep.MakespanS {
			s.rep.MakespanS = now
		}
	}
	s.finish()
	return s.rep, nil
}

// admit runs admission control for an arriving job and enqueues or rejects
// it.
func (s *Scheduler) admit(js *jobState, now float64) error {
	t := js.job.Tenant
	s.rep.tenant(t).Submitted++
	if !s.alive() {
		s.reject(js, "no-devices")
		return nil
	}
	if s.queuedByTenant[t] >= s.cfg.MaxQueuedPerTenant {
		s.reject(js, "queue-full")
		return nil
	}
	curve, err := s.cfg.Models.curves(js.job, s.cfg.Freqs)
	if err != nil {
		return err
	}
	js.curve = make([]prediction, len(curve))
	for i, c := range curve {
		js.curve[i] = prediction{FreqMHz: c.FreqMHz, TimeS: c.TimeS, EnergyJ: c.EnergyJ}
	}
	if !s.feasible(js, now) {
		s.reject(js, "infeasible")
		return nil
	}
	s.rep.Admitted++
	s.rep.tenant(t).Admitted++
	s.om.admitted.Inc()
	s.enqueue(js)
	return s.dispatchIdle(now)
}

// minEffTimeS is the fastest predicted execution time on a device with the
// given observed cap.
func minEffTimeS(curve []prediction, capMHz int) float64 {
	best := -1.0
	for _, p := range curve {
		t := p.TimeS
		if capMHz > 0 && p.FreqMHz > capMHz {
			continue // the governor will not deliver this clock
		}
		if best < 0 || t < best {
			best = t
		}
	}
	if best < 0 {
		// Cap below the whole candidate grid: the slowest candidate is the
		// closest available estimate.
		best = curve[0].TimeS
	}
	return best
}

// feasible reports whether some surviving device is predicted to complete
// the job by its deadline, starting now on an unloaded device (the
// predicted-completion admission test). Backlog is deliberately not
// modeled: admission answers "could the surviving hardware deliver this at
// all?", which keeps the test independent of the frequency policy (the
// models are shared), while transient overload is handled by EDF dispatch,
// escalation and the per-tenant queue bounds. Capacity loss and observed
// thermal caps do tighten the test — that is the failover re-admission
// path.
func (s *Scheduler) feasible(js *jobState, now float64) bool {
	for d := range s.queues {
		if s.dead(d) {
			continue
		}
		if now+minEffTimeS(js.curve, s.capMHz[d]) <= js.job.DeadlineS {
			return true
		}
	}
	return false
}

// enqueue inserts the job into the ready queue in EDF (deadline, ID) order.
func (s *Scheduler) enqueue(js *jobState) {
	i, _ := slices.BinarySearchFunc(s.ready, js, func(a, b *jobState) int {
		if a.job.DeadlineS < b.job.DeadlineS {
			return -1
		}
		if b.job.DeadlineS < a.job.DeadlineS {
			return 1
		}
		return a.job.ID - b.job.ID
	})
	s.ready = slices.Insert(s.ready, i, js)
	s.queuedByTenant[js.job.Tenant]++
}

// unqueue removes the i-th ready job.
func (s *Scheduler) unqueue(i int) *jobState {
	js := s.ready[i]
	s.ready = slices.Delete(s.ready, i, i+1)
	s.queuedByTenant[js.job.Tenant]--
	return js
}

// reAdmit re-runs the feasibility test over the whole ready queue against
// the surviving capacity, shedding jobs that no longer fit — the failover
// re-planning step. Runs on every requeue event (i.e. after a device loss).
func (s *Scheduler) reAdmit(now float64) {
	for i := 0; i < len(s.ready); {
		if !s.alive() || !s.feasible(s.ready[i], now) {
			s.shed(s.unqueue(i))
			continue
		}
		i++
	}
}

// dispatchIdle assigns ready jobs to idle devices until no assignment is
// possible. Idle devices are considered least-recently-freed first (ties by
// index), which spreads a light stream across the cluster instead of
// funnelling it onto device 0; jobs are taken in EDF order. A job predicted
// to miss its deadline on this device defers when another surviving device
// is predicted to do strictly better — the migration path — unless no such
// device exists.
func (s *Scheduler) dispatchIdle(now float64) error {
	for {
		idle := make([]int, 0, len(s.queues))
		for d := range s.queues {
			if !s.dead(d) && !s.busyDev[d] && s.freeAtS[d] <= now {
				idle = append(idle, d)
			}
		}
		slices.SortFunc(idle, func(a, b int) int {
			if s.freeAtS[a] < s.freeAtS[b] {
				return -1
			}
			if s.freeAtS[b] < s.freeAtS[a] {
				return 1
			}
			return a - b
		})
		dispatched := false
		for _, d := range idle {
			if s.busyDev[d] {
				continue
			}
			ji := s.pickJob(d, now)
			if ji < 0 {
				continue
			}
			js := s.unqueue(ji)
			if err := s.execute(js, d, now); err != nil {
				return err
			}
			dispatched = true
		}
		if !dispatched {
			return nil
		}
	}
}

// pickJob selects the ready-queue index to run on idle device d, or -1.
func (s *Scheduler) pickJob(d int, now float64) int {
	for i, js := range s.ready {
		p, _ := decide(s.cfg, js.curve, js.job.DeadlineS, now, s.capMHz[d], s.guard(len(s.ready)-1))
		lateHere := now + p.TimeS - js.job.DeadlineS
		if lateHere <= 0 {
			return i
		}
		// Predicted miss on d: defer if any other surviving device is
		// predicted to do strictly better at its own earliest start.
		better := false
		for o := range s.queues {
			if o == d || s.dead(o) {
				continue
			}
			start := now
			if s.freeAtS[o] > start {
				start = s.freeAtS[o]
			}
			po, _ := decide(s.cfg, js.curve, js.job.DeadlineS, start, s.capMHz[o], s.guard(len(s.ready)-1))
			if start+po.TimeS-js.job.DeadlineS < lateHere {
				better = true
				break
			}
		}
		if better {
			if !js.deferred {
				js.deferred = true
				s.rep.Deferrals++
			}
			continue // leave in queue for the better device
		}
		return i
	}
	return -1
}

// execute runs the job on device d starting at simulated time start,
// applying the retry/backoff/timeout budgets and the failover path. It
// schedules the device's next free event (or the job's requeue on a device
// loss).
func (s *Scheduler) execute(js *jobState, d int, start float64) error {
	p, escalated := decide(s.cfg, js.curve, js.job.DeadlineS, start, s.capMHz[d], s.guard(len(s.ready)))
	if escalated {
		s.rep.Escalations++
		s.om.escalated.Inc()
	}
	if s.capMHz[d] > 0 {
		s.rep.Retunes++
		s.om.retunes.Inc()
	}
	if js.lastDev >= 0 && js.lastDev != d {
		s.rep.Migrations++
	}
	js.lastDev = d
	s.busyDev[d] = true

	q := s.queues[d]
	w, err := js.job.Workload()
	if err != nil {
		return err
	}
	commanded := p.FreqMHz
	if s.cfg.CapProbeEvery > 0 && s.capMHz[d] > 0 && commanded <= s.capMHz[d] {
		s.cappedRuns[d]++
		if s.cappedRuns[d] >= s.cfg.CapProbeEvery {
			// Probe above the cap: a clean run clears it, a throttled run
			// re-confirms it — either way the cap tracks the window again.
			s.cappedRuns[d] = 0
			commanded = s.cfg.Freqs[len(s.cfg.Freqs)-1]
			s.rep.CapProbes++
		}
	}
	// The BackoffCapS term keeps the budget meaningful for jobs whose
	// nominal time is smaller than a single retry backoff.
	budgetS := s.cfg.TimeoutFactor * (js.job.NominalS + s.cfg.BackoffCapS)

	var busy, energy float64 // this dispatch's device occupancy and energy
	for attempt := 0; ; attempt++ {
		if err := q.SetCoreFreqMHz(commanded); err != nil {
			switch {
			case faults.IsPermanent(err):
				s.failover(js, d, start+busy)
				return nil
			case faults.IsClockRejected(err):
				// Flaky vendor library: run at the queue's current clock and
				// count it; the event log stays truthful either way.
				s.rep.ClockRejects++
			default:
				return err
			}
		}
		first := q.EventCount()
		t, e, err := w.RunOn(q)
		if err == nil {
			busy += t
			energy += e
			s.observeClock(d, commanded, first)
			s.complete(js, d, start, start+busy, p, energy)
			return nil
		}

		// The failed attempt still burned its partial cost.
		var wasteT, wasteE float64
		for _, ev := range q.EventsFrom(first) {
			wasteT += ev.TimeS
			wasteE += ev.EnergyJ
		}
		busy += wasteT
		js.busyS += wasteT
		s.rep.WastedTimeS += wasteT
		s.rep.WastedEnergyJ += wasteE
		energy += wasteE

		switch {
		case faults.IsPermanent(err):
			s.busyS[d] += busy
			s.failover(js, d, start+busy)
			return nil
		case faults.IsTransient(err):
			if js.retries >= s.cfg.MaxRetries {
				s.fail(js, d, start, busy, "retry budget exhausted")
				return nil
			}
			js.retries++
			s.rep.Retries++
			s.om.retries.Inc()
			delay := s.cfg.BackoffBaseS * pow(s.cfg.BackoffFactor, attempt)
			if delay > s.cfg.BackoffCapS {
				delay = s.cfg.BackoffCapS
			}
			busy += delay
			js.busyS += delay
			s.rep.BackoffTimeS += delay
			energy += delay * s.idleW
			s.rep.backoffEnergyJ += delay * s.idleW
			if js.busyS > budgetS {
				s.fail(js, d, start, busy, "timeout budget exhausted")
				return nil
			}
		default:
			return err
		}
	}
}

// pow is a small integer-exponent power (math.Pow's semantics are overkill
// for backoff growth).
func pow(base float64, n int) float64 {
	out := 1.0
	for i := 0; i < n; i++ {
		out *= base
	}
	return out
}

// observeClock compares the clocks the submissions actually ran at against
// the commanded clock and updates the device's observed thermal cap: a run
// below the command sets the cap (later decisions on this device re-tune to
// it), a full-speed run above the recorded cap clears it.
func (s *Scheduler) observeClock(d, commanded, firstEvent int) {
	minF := commanded
	for _, ev := range s.queues[d].EventsFrom(firstEvent) {
		if ev.FreqMHz < minF {
			minF = ev.FreqMHz
		}
	}
	if minF < commanded {
		s.capMHz[d] = minF
		s.rep.ThrottledRuns++
	} else if s.capMHz[d] != 0 && commanded > s.capMHz[d] {
		s.capMHz[d] = 0
		s.cappedRuns[d] = 0
	}
}

// complete finalizes a successful dispatch.
func (s *Scheduler) complete(js *jobState, d int, start, end float64, p prediction, energyJ float64) {
	s.busyS[d] += end - start
	s.freeAtS[d] = end
	s.events.Push(end, event{kind: evFree, dev: d})

	late := end - js.job.DeadlineS
	if late < 0 {
		late = 0
	}
	s.rep.Completed++
	s.om.completed.Inc()
	ts := s.rep.tenant(js.job.Tenant)
	ts.Completed++
	ts.EnergyJ += energyJ
	s.rep.latenesses = append(s.rep.latenesses, late)
	if late > 0 {
		s.rep.Missed++
		s.om.missed.Inc()
		ts.Missed++
		if late > ts.MaxLatenessS {
			ts.MaxLatenessS = late
		}
	}
	s.obsv.Trace().Add("sched.job", end-start,
		obs.L("app", js.job.App.String()),
		obs.L("device", strconv.Itoa(d)),
		obs.L("freq_mhz", strconv.Itoa(p.FreqMHz)),
		obs.L("late", boolLabel(late > 0)),
		obs.L("tenant", js.job.Tenant))
}

// fail abandons a job after exhausted budgets; the device stays usable.
func (s *Scheduler) fail(js *jobState, d int, start, busy float64, reason string) {
	s.busyS[d] += busy
	s.freeAtS[d] = start + busy
	s.events.Push(start+busy, event{kind: evFree, dev: d})
	s.rep.Failed++
	s.om.failed.Inc()
	s.rep.tenant(js.job.Tenant).Failed++
	s.obsv.Trace().Add("sched.fail", busy,
		obs.L("app", js.job.App.String()),
		obs.L("device", strconv.Itoa(d)),
		obs.L("reason", reason),
		obs.L("tenant", js.job.Tenant))
}

// failover handles a permanent device loss observed while serving js: the
// device is marked dead (cluster-wide), the job is requeued to the
// survivors, and the requeue event triggers re-admission of all queued work.
func (s *Scheduler) failover(js *jobState, d int, at float64) {
	s.deathS[d] = at
	s.cl.MarkDead(d)
	s.rep.Failovers++
	s.om.failovers.Inc()
	js.requeues++
	s.rep.Requeues++
	s.om.requeues.Inc()
	s.obsv.Trace().Add("sched.failover", 0,
		obs.L("device", strconv.Itoa(d)),
		obs.L("tenant", js.job.Tenant))
	if !s.alive() {
		// Nothing left to run on: the in-flight job and the whole queue are
		// shed.
		s.shed(js)
		for len(s.ready) > 0 {
			s.shed(s.unqueue(0))
		}
		return
	}
	s.pendingRequeue = append(s.pendingRequeue, js)
	s.events.Push(at, event{kind: evRequeue})
}

// shed drops an admitted job that no longer fits the surviving capacity.
func (s *Scheduler) shed(js *jobState) {
	s.rep.Shed++
	s.om.shed.Inc()
	s.rep.tenant(js.job.Tenant).Shed++
	s.obsv.Trace().Add("sched.shed", 0,
		obs.L("app", js.job.App.String()),
		obs.L("tenant", js.job.Tenant))
}

// reject refuses an arriving job at admission.
func (s *Scheduler) reject(js *jobState, reason string) {
	s.rep.Rejected++
	s.om.rejected.Inc()
	ts := s.rep.tenant(js.job.Tenant)
	switch reason {
	case "queue-full":
		s.rep.RejectedQueueFull++
		ts.RejectedQueueFull++
	case "infeasible":
		s.rep.RejectedInfeasible++
		ts.RejectedInfeasible++
	default:
		s.rep.RejectedNoDevices++
		ts.RejectedNoDevices++
	}
	s.obsv.Trace().Add("sched.reject", 0,
		obs.L("app", js.job.App.String()),
		obs.L("reason", reason),
		obs.L("tenant", js.job.Tenant))
}

// finish closes the books: energy split into active (from the device
// counters, waste included), backoff and idle tiers, and the lateness
// percentiles.
func (s *Scheduler) finish() {
	r := s.rep
	for d, q := range s.queues {
		r.ActiveEnergyJ += q.EnergyCounterJ()
		horizon := r.MakespanS
		if s.dead(d) {
			horizon = s.deathS[d]
		} else {
			r.SurvivingDevices++
		}
		if idle := horizon - s.busyS[d]; idle > 0 {
			r.IdleEnergyJ += idle * s.idleW
		}
		r.BusyTimeS += s.busyS[d]
	}
	// Backoff burned idle power on an occupied device; it was charged into
	// backoffEnergyJ during execution and is reported inside ActiveEnergyJ.
	r.ActiveEnergyJ += r.backoffEnergyJ
	r.TotalEnergyJ = r.ActiveEnergyJ + r.IdleEnergyJ
	r.finalize()
}

func boolLabel(b bool) string {
	if b {
		return "1"
	}
	return "0"
}
