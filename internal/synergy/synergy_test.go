package synergy

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"dsenergy/internal/faults"
	"dsenergy/internal/gpusim"
	"dsenergy/internal/kernels"
	"dsenergy/internal/obs"
)

func testProfile() kernels.Profile {
	return kernels.Profile{
		Name: "k",
		Mix: kernels.InstructionMix{
			FloatAdd: 50, FloatMul: 50, IntAdd: 10, GlobalAcc: 4,
		},
		WorkItems: 1 << 16, Launches: 4,
		WorkingSetBytes: 1 << 20, CacheReuse: 0.8,
	}
}

func newTestPlatform(t *testing.T) *Platform {
	t.Helper()
	p, err := NewPlatform(5, gpusim.V100Spec(), gpusim.MI100Spec())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPlatformDiscovery(t *testing.T) {
	p := newTestPlatform(t)
	qs := p.Queues()
	if len(qs) != 2 {
		t.Fatalf("want 2 devices, got %d", len(qs))
	}
	if qs[0].Spec().Name != "NVIDIA V100" || qs[1].Spec().Name != "AMD MI100" {
		t.Errorf("device order %q, %q", qs[0].Spec().Name, qs[1].Spec().Name)
	}
}

func TestSubmitRecordsEvents(t *testing.T) {
	p := newTestPlatform(t)
	q := p.Queues()[0]
	r, err := q.Submit(testProfile())
	if err != nil {
		t.Fatal(err)
	}
	if r.TimeS <= 0 || r.EnergyJ <= 0 {
		t.Fatalf("bad result %+v", r)
	}
	evs := q.Events()
	if len(evs) != 1 {
		t.Fatalf("want 1 event, got %d", len(evs))
	}
	if evs[0].Kernel != "k" || evs[0].FreqMHz != q.BaselineFreqMHz() {
		t.Errorf("event %+v", evs[0])
	}
}

func TestFrequencyPinning(t *testing.T) {
	p := newTestPlatform(t)
	q := p.Queues()[0]
	target := q.Spec().FMaxMHz()
	if err := q.SetCoreFreqMHz(target); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(testProfile()); err != nil {
		t.Fatal(err)
	}
	if evs := q.Events(); evs[len(evs)-1].FreqMHz != target {
		t.Errorf("submission ran at %d, want pinned %d", evs[len(evs)-1].FreqMHz, target)
	}
	q.ResetFrequency()
	if q.Device().CoreFreqMHz() != q.BaselineFreqMHz() {
		t.Error("reset did not restore baseline")
	}
	if err := q.SetCoreFreqMHz(42); err == nil {
		t.Error("expected error for unsupported frequency")
	}
}

func TestSubmitAtLeavesPinnedClock(t *testing.T) {
	p := newTestPlatform(t)
	q := p.Queues()[0]
	pin := q.Spec().NearestFreqMHz(1000)
	if err := q.SetCoreFreqMHz(pin); err != nil {
		t.Fatal(err)
	}
	other := q.Spec().FMaxMHz()
	if _, err := q.SubmitAt(testProfile(), other); err != nil {
		t.Fatal(err)
	}
	if q.Device().CoreFreqMHz() != pin {
		t.Errorf("per-kernel submission disturbed the pinned clock: %d", q.Device().CoreFreqMHz())
	}
	evs := q.Events()
	if evs[len(evs)-1].FreqMHz != other {
		t.Errorf("per-kernel event frequency %d, want %d", evs[len(evs)-1].FreqMHz, other)
	}
	if _, err := q.SubmitAt(testProfile(), 13); err == nil {
		t.Error("expected error for bad per-kernel frequency")
	}
}

// sweepWorkload adapts a profile for MeasureAt tests.
type sweepWorkload struct{ p kernels.Profile }

func (w sweepWorkload) Name() string { return w.p.Name }
func (w sweepWorkload) RunOn(q *Queue) (float64, float64, error) {
	r, err := q.Submit(w.p)
	return r.TimeS, r.EnergyJ, err
}

func TestMeasureAtAveragesReps(t *testing.T) {
	p := newTestPlatform(t)
	q := p.Queues()[0]
	w := sweepWorkload{testProfile()}
	m, err := MeasureAt(q, w, q.BaselineFreqMHz(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if m.TimeS <= 0 || m.EnergyJ <= 0 {
		t.Fatalf("bad measurement %+v", m)
	}
	if len(q.Events()) != 5 {
		t.Errorf("5 repetitions should leave 5 events, got %d", len(q.Events()))
	}
	// The queue frequency is restored after measuring.
	if q.Device().CoreFreqMHz() != q.BaselineFreqMHz() {
		t.Error("MeasureAt leaked its pinned frequency")
	}
}

func TestMeasureAtBadFrequency(t *testing.T) {
	p := newTestPlatform(t)
	q := p.Queues()[0]
	if _, err := MeasureAt(q, sweepWorkload{testProfile()}, 31, 1); err == nil {
		t.Error("expected error for unsupported frequency")
	}
}

func TestSweepOrderMatchesRequest(t *testing.T) {
	p := newTestPlatform(t)
	q := p.Queues()[0]
	spec := q.Spec()
	freqs := []int{spec.FMaxMHz(), spec.BaselineFreqMHz(), spec.NearestFreqMHz(900)}
	ms, err := Sweep(q, sweepWorkload{testProfile()}, freqs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Fatalf("want 3 measurements, got %d", len(ms))
	}
	for i, m := range ms {
		if m.FreqMHz != freqs[i] {
			t.Errorf("measurement %d at %d, want %d", i, m.FreqMHz, freqs[i])
		}
	}
}

func TestPlatformsIdenticallySeededAgree(t *testing.T) {
	a := newTestPlatform(t)
	b := newTestPlatform(t)
	wa, _ := a.Queues()[0].Submit(testProfile())
	wb, _ := b.Queues()[0].Submit(testProfile())
	if wa != wb {
		t.Error("identically seeded platforms observed different measurements")
	}
}

func TestQueueConcurrentSubmissionsSafe(t *testing.T) {
	p := newTestPlatform(t)
	q := p.Queues()[0]
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := q.Submit(testProfile()); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := len(q.Events()); got != 16 {
		t.Errorf("want 16 events, got %d", got)
	}
	// The energy counter equals the sum of all event energies.
	var sum float64
	for _, e := range q.Events() {
		sum += e.EnergyJ
	}
	if math.Abs(sum-q.EnergyCounterJ()) > 1e-9 {
		t.Errorf("counter %g != event sum %g", q.EnergyCounterJ(), sum)
	}
}

func TestSupportedFreqsIsCopy(t *testing.T) {
	p := newTestPlatform(t)
	q := p.Queues()[0]
	fs := q.SupportedFreqsMHz()
	fs[0] = -1
	if q.SupportedFreqsMHz()[0] == -1 {
		t.Error("SupportedFreqsMHz leaks internal slice")
	}
}

func TestNewPlatformRejectsDuplicateNames(t *testing.T) {
	if _, err := NewPlatform(5, gpusim.V100Spec(), gpusim.V100Spec()); err == nil {
		t.Fatal("expected error for duplicate device names")
	}
	// Renamed copies of the same spec are fine.
	a, b := gpusim.V100Spec(), gpusim.V100Spec()
	b.Name = "NVIDIA V100 #1"
	if _, err := NewPlatform(5, a, b); err != nil {
		t.Fatalf("distinct names must be accepted: %v", err)
	}
}

func TestSubmitUnderThrottleRunsAtEffectiveClock(t *testing.T) {
	p := newTestPlatform(t)
	q := p.Queues()[0]
	o := obs.NewObserver()
	q.SetObserver(o)
	const capMHz = 900
	plan := faults.Plan{
		Seed:      3,
		Throttles: []faults.Throttle{{Device: 0, FromSubmit: 2, ToSubmit: 3, CapMHz: capMHz}},
	}
	inj, err := faults.NewInjector(plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	q.SetFaultInjector(inj.Device(0))
	top := q.Spec().FMaxMHz()
	if _, err := q.SubmitAt(testProfile(), top); err != nil {
		t.Fatal(err)
	}
	if _, err := q.SubmitAt(testProfile(), top); err != nil {
		t.Fatal(err)
	}
	evs := q.Events()
	if len(evs) != 2 {
		t.Fatalf("want 2 events, got %d", len(evs))
	}
	if evs[0].FreqMHz != top {
		t.Errorf("submission outside the window ran at %d MHz, want %d", evs[0].FreqMHz, top)
	}
	want := q.Spec().FloorFreqMHz(capMHz)
	if evs[1].FreqMHz != want {
		t.Errorf("throttled submission ran at %d MHz, want %d", evs[1].FreqMHz, want)
	}
	if evs[1].TimeS <= evs[0].TimeS {
		t.Errorf("throttled run (%.6fs) should be slower than full-clock run (%.6fs)", evs[1].TimeS, evs[0].TimeS)
	}
	if got := faultCounter(o, "synergy_throttled_submissions_total"); got != 1 {
		t.Errorf("throttled submissions counted %d, want 1", got)
	}
}

func TestMeasureAtReportsEffectiveClock(t *testing.T) {
	p := newTestPlatform(t)
	q := p.Queues()[0]
	const capMHz = 900
	plan := faults.Plan{
		Seed:      3,
		Throttles: []faults.Throttle{{Device: 0, FromSubmit: 1, ToSubmit: 1 << 30, CapMHz: capMHz}},
	}
	inj, err := faults.NewInjector(plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	q.SetFaultInjector(inj.Device(0))
	top := q.Spec().FMaxMHz()
	m, err := MeasureAt(q, sweepWorkload{testProfile()}, top, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.FreqMHz != top {
		t.Errorf("requested clock recorded as %d, want %d", m.FreqMHz, top)
	}
	if want := q.Spec().FloorFreqMHz(capMHz); m.EffFreqMHz != want {
		t.Errorf("EffFreqMHz = %d, want %d", m.EffFreqMHz, want)
	}
}

func TestFaultedSubmitChargesPartialWork(t *testing.T) {
	p := newTestPlatform(t)
	q := p.Queues()[0]
	o := obs.NewObserver()
	q.SetObserver(o)
	plan := faults.Plan{
		Seed:     3,
		Failures: []faults.DeviceFailure{{Device: 0, AfterSubmits: 1}},
	}
	inj, err := faults.NewInjector(plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	q.SetFaultInjector(inj.Device(0))
	if _, err := q.Submit(testProfile()); err != nil {
		t.Fatal(err)
	}
	before := q.EnergyCounterJ()
	if _, err := q.Submit(testProfile()); err == nil {
		t.Fatal("expected the second submission to fail permanently")
	}
	evs := q.Events()
	if len(evs) != 2 || !evs[1].Faulted {
		t.Fatalf("aborted submission must log a Faulted event, got %+v", evs)
	}
	if evs[1].EnergyJ <= 0 {
		t.Error("aborted submission should charge partial energy")
	}
	if got := q.EnergyCounterJ() - before; math.Abs(got-evs[1].EnergyJ) > 1e-9 {
		t.Errorf("energy counter advanced %.6f J, event says %.6f J", got, evs[1].EnergyJ)
	}
	if got := faultCounter(o, "synergy_faults_permanent_total"); got != 1 {
		t.Errorf("permanent faults counted %d, want 1", got)
	}
}

// sweepPair builds two identically seeded single-device queues, optionally
// attaching a fresh injector for the same fault plan to each, so one side can
// run serially and the other in parallel.
func sweepPair(t *testing.T, plan *faults.Plan) (qa, qb *Queue) {
	t.Helper()
	build := func() *Queue {
		p, err := NewPlatform(11, gpusim.V100Spec())
		if err != nil {
			t.Fatal(err)
		}
		q := p.Queues()[0]
		if plan != nil {
			inj, err := faults.NewInjector(*plan, 1)
			if err != nil {
				t.Fatal(err)
			}
			q.SetFaultInjector(inj.Device(0))
		}
		return q
	}
	return build(), build()
}

// requireQueuesIdentical asserts every observable byte of the two queues
// agrees: event logs and energy counters. The event log records every
// injected fault: a throttled submission at the clock it ran at, an aborted
// one as a Faulted event with the time and energy it burned.
func requireQueuesIdentical(t *testing.T, qa, qb *Queue, label string) {
	t.Helper()
	if !reflect.DeepEqual(qa.Events(), qb.Events()) {
		t.Errorf("%s: event logs diverged", label)
	}
	if !reflect.DeepEqual(qa.EnergyCounterJ(), qb.EnergyCounterJ()) {
		t.Errorf("%s: energy counters diverged: %v vs %v", label, qa.EnergyCounterJ(), qb.EnergyCounterJ())
	}
}

// faultCounter reads one of the V100 queue's stable-tier fault counters.
func faultCounter(o *obs.Observer, name string) uint64 {
	return o.Metrics().Counter(name, obs.L("device", "NVIDIA V100")).Value()
}

// sweepOn is Sweep on a pool of workers: SweepSet with the one workload.
func sweepOn(q *Queue, w Workload, freqs []int, reps, workers int) ([]Measurement, error) {
	ms, err := SweepSet(q, []Workload{w}, freqs, reps, workers)
	if err != nil {
		return nil, err
	}
	return ms[0], nil
}

func TestParallelSweepMatchesSweep(t *testing.T) {
	for _, workers := range []int{0, 2, 8} {
		qa, qb := sweepPair(t, nil)
		freqs := qa.SupportedFreqsMHz()
		serial, err := Sweep(qa, sweepWorkload{testProfile()}, freqs, 3)
		if err != nil {
			t.Fatal(err)
		}
		par, err := sweepOn(qb, sweepWorkload{testProfile()}, freqs, 3, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Errorf("workers=%d: measurements diverged from serial sweep", workers)
		}
		requireQueuesIdentical(t, qa, qb, fmt.Sprintf("workers=%d", workers))
	}
}

func TestParallelSweepMatchesSweepUnderActiveFaults(t *testing.T) {
	// A plan with live throttle windows: every partition of the sweep sees its
	// first two submissions capped, so fault handling, effective-clock
	// reporting and fault counting are all on the measured path.
	plan := faults.Plan{
		Seed:      7,
		Throttles: []faults.Throttle{{Device: 0, FromSubmit: 1, ToSubmit: 3, CapMHz: 900}},
	}
	qa, qb, _, ob := observedSweepPair(t, &plan)
	freqs := qa.SupportedFreqsMHz()
	serial, err := Sweep(qa, sweepWorkload{testProfile()}, freqs, 3)
	if err != nil {
		t.Fatal(err)
	}
	par, err := sweepOn(qb, sweepWorkload{testProfile()}, freqs, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Error("measurements diverged under an active fault plan")
	}
	if faultCounter(ob, "synergy_throttled_submissions_total") == 0 {
		t.Error("fault plan was not actually exercised (no throttled submissions)")
	}
	requireQueuesIdentical(t, qa, qb, "faulted sweep")
}

func TestSweepFailureLeavesQueueUntouched(t *testing.T) {
	// The device dies partway through every sweep partition (failure windows
	// are partition-relative, so AfterSubmits 1 kills the second repetition of
	// each frequency): serial and parallel must both fail, and neither may
	// leave partial events or energy on the parent queue — the error path is
	// part of the determinism contract.
	plan := faults.Plan{
		Seed:     7,
		Failures: []faults.DeviceFailure{{Device: 0, AfterSubmits: 1}},
	}
	qa, qb := sweepPair(t, &plan)
	freqs := qa.SupportedFreqsMHz()
	if _, err := Sweep(qa, sweepWorkload{testProfile()}, freqs, 3); err == nil {
		t.Fatal("serial sweep should fail on the scheduled device loss")
	}
	if _, err := sweepOn(qb, sweepWorkload{testProfile()}, freqs, 3, 8); err == nil {
		t.Fatal("parallel sweep should fail on the scheduled device loss")
	}
	for label, q := range map[string]*Queue{"serial": qa, "parallel": qb} {
		if n := len(q.Events()); n != 0 {
			t.Errorf("%s: failed sweep left %d events on the parent queue", label, n)
		}
		if !reflect.DeepEqual(q.EnergyCounterJ(), 0.0) {
			t.Errorf("%s: failed sweep charged %v J to the parent queue", label, q.EnergyCounterJ())
		}
	}
}

func TestSweepSetMatchesSequentialSweeps(t *testing.T) {
	p2 := testProfile()
	p2.Name = "k2"
	p2.WorkItems = 1 << 14
	workloads := []Workload{sweepWorkload{testProfile()}, sweepWorkload{p2}}

	qa, qb := sweepPair(t, nil)
	freqs := qa.SupportedFreqsMHz()
	var want [][]Measurement
	for _, w := range workloads {
		ms, err := Sweep(qa, w, freqs, 2)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, ms)
	}
	got, err := SweepSet(qb, workloads, freqs, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("SweepSet measurements diverged from sequential Sweep calls")
	}
	requireQueuesIdentical(t, qa, qb, "sweep set")
}

func TestSweepCacheOnOffByteIdentical(t *testing.T) {
	// The compiled-profile cache is a pure evaluation shortcut: disabling it
	// must not perturb a single observable byte of a sweep — measurements,
	// event logs or energy counters — serially or on a worker pool.
	w := sweepWorkload{testProfile()}
	qa, qb := sweepPair(t, nil)
	qb.Device().DisableAnalyticCache()
	freqs := qa.SupportedFreqsMHz()
	on, err := Sweep(qa, w, freqs, 3)
	if err != nil {
		t.Fatal(err)
	}
	off, err := Sweep(qb, w, freqs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(on, off) {
		t.Error("serial sweep measurements diverged between cache on and off")
	}
	requireQueuesIdentical(t, qa, qb, "serial cache on/off")

	qc, qd := sweepPair(t, nil)
	qd.Device().DisableAnalyticCache()
	pOn, err := sweepOn(qc, w, freqs, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	pOff, err := sweepOn(qd, w, freqs, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pOn, pOff) {
		t.Error("parallel sweep measurements diverged between cache on and off")
	}
	if !reflect.DeepEqual(on, pOff) {
		t.Error("cache-off parallel sweep diverged from cache-on serial sweep")
	}
	requireQueuesIdentical(t, qc, qd, "parallel cache on/off")
}

// Device exposes the underlying simulated device (read-only use intended).
func (q *Queue) Device() *gpusim.Device { return q.dev }

// Events returns a copy of the recorded per-kernel energy events.
func (q *Queue) Events() []Event {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]Event, len(q.events))
	copy(out, q.events)
	return out
}
