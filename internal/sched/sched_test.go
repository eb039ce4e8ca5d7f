package sched

import (
	"bytes"
	"math"
	"slices"
	"sync"
	"testing"

	"dsenergy/internal/cluster"
	"dsenergy/internal/core"
	"dsenergy/internal/faults"
	"dsenergy/internal/gpusim"
	"dsenergy/internal/ml"
	"dsenergy/internal/synergy"
)

// testFreqs is a small candidate-clock grid for the V100: a strided slice of
// the upper band plus the baseline and f_max.
func testFreqs(t testing.TB) []int {
	t.Helper()
	spec := gpusim.V100Spec()
	band := spec.FreqsAbove(0.40)
	var freqs []int
	for i := 0; i < len(band); i += 16 {
		freqs = append(freqs, band[i])
	}
	for _, f := range []int{spec.BaselineFreqMHz(), spec.FMaxMHz()} {
		if !slices.Contains(freqs, f) {
			freqs = append(freqs, f)
		}
	}
	slices.Sort(freqs)
	return freqs
}

var (
	modelsOnce sync.Once
	modelsSet  *ModelSet
	modelsErr  error
)

// testModels trains one small raw forest per application on the stream's
// size ladders, shared across the package's tests (training dominates the
// suite's runtime otherwise).
func testModels(t testing.TB) *ModelSet {
	t.Helper()
	modelsOnce.Do(func() {
		p, err := synergy.NewPlatform(1, gpusim.V100Spec())
		if err != nil {
			modelsErr = err
			return
		}
		q := p.Queues()[0]
		freqs := testFreqs(t)
		spec := ml.Spec{Algorithm: "forest", Params: map[string]float64{"n_estimators": 5}}

		var ligenWLs []core.FeaturedWorkload
		for _, in := range LiGenSizeLadder() {
			w, err := Job{App: AppLiGen, LiGen: in}.Workload()
			if err != nil {
				modelsErr = err
				return
			}
			ligenWLs = append(ligenWLs, core.FeaturedWorkload{
				Workload: w,
				Features: []float64{float64(in.Ligands), float64(in.Atoms), float64(in.Fragments)},
			})
		}
		var cronosWLs []core.FeaturedWorkload
		for _, sz := range CronosSizeLadder() {
			w, err := Job{App: AppCronos, Grid: sz.Grid, Steps: sz.Steps}.Workload()
			if err != nil {
				modelsErr = err
				return
			}
			cronosWLs = append(cronosWLs, core.FeaturedWorkload{
				Workload: w,
				Features: []float64{float64(sz.Grid[0]), float64(sz.Grid[1]), float64(sz.Grid[2])},
			})
		}
		bc := core.BuildConfig{Freqs: freqs, Reps: 1}
		lds, err := core.BuildDataset(q, core.LiGenSchema(), ligenWLs, bc)
		if err != nil {
			modelsErr = err
			return
		}
		cds, err := core.BuildDataset(q, core.CronosSchema(), cronosWLs, bc)
		if err != nil {
			modelsErr = err
			return
		}
		lm, err := core.Train(lds, spec, 2)
		if err != nil {
			modelsErr = err
			return
		}
		cm, err := core.Train(cds, spec, 3)
		if err != nil {
			modelsErr = err
			return
		}
		modelsSet = &ModelSet{LiGen: lm, Cronos: cm}
	})
	if modelsErr != nil {
		t.Fatal(modelsErr)
	}
	return modelsSet
}

// testCluster builds a fresh n-device V100 cluster with the given fault plan.
func testCluster(t testing.TB, seed uint64, n int, plan faults.Plan) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(seed, gpusim.V100Spec(), n, cluster.DefaultInterconnect())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetFaultPlan(plan, cluster.DefaultResilienceConfig()); err != nil {
		t.Fatal(err)
	}
	return c
}

func testScheduler(t testing.TB, cl *cluster.Cluster, cfg Config) *Scheduler {
	t.Helper()
	if cfg.Freqs == nil {
		cfg.Freqs = testFreqs(t)
	}
	if cfg.Models == nil {
		cfg.Models = testModels(t)
	}
	s, err := New(cl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGenerateStreamSeedDeterminism(t *testing.T) {
	spec := gpusim.V100Spec()
	a, err := GenerateStream(StreamConfig{Seed: 9, Jobs: 32}, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateStream(StreamConfig{Seed: 9, Jobs: 32}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a, b) {
		t.Fatal("identically seeded streams differ")
	}
	c, err := GenerateStream(StreamConfig{Seed: 10, Jobs: 32}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(a, c) {
		t.Fatal("differently seeded streams are identical; draws are not seeded")
	}
}

func TestGenerateStreamShape(t *testing.T) {
	spec := gpusim.V100Spec()
	jobs, err := GenerateStream(StreamConfig{Seed: 4, Jobs: 64}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 64 {
		t.Fatalf("got %d jobs, want 64", len(jobs))
	}
	tenants := DefaultTenants()
	var prev float64
	for i, j := range jobs {
		if j.ID != i {
			t.Fatalf("job %d has ID %d", i, j.ID)
		}
		if j.ArrivalS < prev {
			t.Fatalf("job %d arrives at %g before predecessor %g", i, j.ArrivalS, prev)
		}
		prev = j.ArrivalS
		if j.NominalS <= 0 {
			t.Fatalf("job %d has non-positive nominal time %g", i, j.NominalS)
		}
		// Deadline slack respects both the multiplier range and the floor.
		slack := j.DeadlineS - j.ArrivalS
		if slack < 1.0-1e-12 {
			t.Fatalf("job %d slack %gs is below the default 1s floor", i, slack)
		}
		if slack > 8*j.NominalS+1e-9 && slack > 1.0+1e-9 {
			t.Fatalf("job %d slack %gs exceeds both SlackMax x nominal %g and the floor", i, slack, 8*j.NominalS)
		}
		if !slices.Contains(tenants, j.Tenant) {
			t.Fatalf("job %d has unknown tenant %q", i, j.Tenant)
		}
		if len(j.Features()) != 3 {
			t.Fatalf("job %d has %d features, want 3", i, len(j.Features()))
		}
	}
}

func TestGenerateStreamRejectsBadConfig(t *testing.T) {
	spec := gpusim.V100Spec()
	bad := []StreamConfig{
		{Seed: 1, Jobs: -1},
		{Seed: 1, SlackMin: 5, SlackMax: 2},
		{Seed: 1, SlackMin: -1},
		{Seed: 1, LiGenFrac: 1.5},
	}
	for i, cfg := range bad {
		if _, err := GenerateStream(cfg, spec); err == nil {
			t.Errorf("config %d: expected error, got none", i)
		}
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	cl := testCluster(t, 1, 2, faults.Plan{})
	models := testModels(t)
	freqs := testFreqs(t)
	bad := []struct {
		name string
		cfg  Config
	}{
		{"no freqs", Config{Models: models}},
		{"unsorted freqs", Config{Models: models, Freqs: []int{1597, 1297}}},
		{"nil models", Config{Freqs: freqs}},
		{"unsupported freq", Config{Models: models, Freqs: []int{123}}},
		{"static not a candidate", Config{Models: models, Freqs: freqs, Policy: PolicyStatic, StaticFreqMHz: freqs[0] + 1}},
		{"guard too large", Config{Models: models, Freqs: freqs, SlackGuardFrac: 1.5}},
		{"stretch below 1", Config{Models: models, Freqs: freqs, MaxStretch: 0.5}},
	}
	for _, tc := range bad {
		if _, err := New(cl, tc.cfg); err == nil {
			t.Errorf("%s: expected error, got none", tc.name)
		}
	}
}

func TestSchedulerRunsOnlyOnce(t *testing.T) {
	s := testScheduler(t, testCluster(t, 1, 2, faults.Plan{}), Config{})
	jobs, err := GenerateStream(StreamConfig{Seed: 5, Jobs: 4}, gpusim.V100Spec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(jobs); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(jobs); err == nil {
		t.Fatal("second Run on the same scheduler must error")
	}
}

// TestSchedulerRejectsMisShapedModel: a Cronos job has three features, so a
// Cronos model trained on another width must stop the run with an error.
// Predicting anyway would choose a clock from an all-zero curve (a wider
// schema) or read the third grid dimension as the clock (a narrower one).
func TestSchedulerRejectsMisShapedModel(t *testing.T) {
	freqs := testFreqs(t)
	sz := CronosSizeLadder()[0]
	jobs := []Job{{ID: 0, Tenant: "t", App: AppCronos, Grid: sz.Grid, Steps: sz.Steps, NominalS: 1, DeadlineS: 100}}
	for _, width := range []int{2, 4} {
		ds := &core.Dataset{
			Schema:          core.Schema{App: "cronos", Features: make([]string, width)},
			BaselineFreqMHz: gpusim.V100Spec().BaselineFreqMHz(),
		}
		for in := 1; in <= 3; in++ {
			features := make([]float64, width)
			for i := range features {
				features[i] = float64(in * 16)
			}
			for _, f := range freqs {
				ds.Samples = append(ds.Samples, core.Sample{
					Features: features, FreqMHz: f,
					TimeS: float64(in) * 1000 / float64(f), EnergyJ: float64(in),
				})
			}
		}
		bad, err := core.Train(ds, ml.Spec{Algorithm: "forest", Params: map[string]float64{"n_estimators": 3}}, 1)
		if err != nil {
			t.Fatal(err)
		}
		models := &ModelSet{LiGen: testModels(t).LiGen, Cronos: bad}
		s := testScheduler(t, testCluster(t, 1, 1, faults.Plan{}), Config{Models: models})
		if _, err := s.Run(jobs); err == nil {
			t.Errorf("a %d-feature Cronos model scheduled a 3-feature job", width)
		}
	}
}

// TestFaultFreeRunAccounting checks the report's conservation laws on a
// fault-free run: every submitted job is admitted or rejected, every admitted
// job completes (no faults, generous deadlines), and the energy and tenant
// tables add up.
func TestFaultFreeRunAccounting(t *testing.T) {
	jobs, err := GenerateStream(StreamConfig{Seed: 6, Jobs: 48}, gpusim.V100Spec())
	if err != nil {
		t.Fatal(err)
	}
	s := testScheduler(t, testCluster(t, 2, 4, faults.Plan{}), Config{})
	r, err := s.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if r.Submitted != 48 || r.Submitted != r.Admitted+r.Rejected {
		t.Fatalf("submitted=%d admitted=%d rejected=%d", r.Submitted, r.Admitted, r.Rejected)
	}
	if r.Completed+r.Failed+r.Shed != r.Admitted {
		t.Fatalf("admitted %d jobs but accounted %d", r.Admitted, r.Completed+r.Failed+r.Shed)
	}
	if r.Failed != 0 || r.Shed != 0 || r.Failovers != 0 || r.Retries != 0 {
		t.Fatalf("fault-free run reports faults: %+v", r)
	}
	if r.SurvivingDevices != 4 {
		t.Fatalf("surviving=%d, want 4", r.SurvivingDevices)
	}
	if r.TotalEnergyJ <= 0 || math.Abs(r.TotalEnergyJ-(r.ActiveEnergyJ+r.IdleEnergyJ)) > 1e-9 {
		t.Fatalf("energy accounting broken: total=%g active=%g idle=%g", r.TotalEnergyJ, r.ActiveEnergyJ, r.IdleEnergyJ)
	}
	if r.MakespanS <= 0 || r.BusyTimeS <= 0 {
		t.Fatalf("time accounting broken: makespan=%g busy=%g", r.MakespanS, r.BusyTimeS)
	}
	var tenantCompleted, tenantSubmitted int
	var tenantEnergy float64
	for _, ts := range r.Tenants {
		tenantCompleted += ts.Completed
		tenantSubmitted += ts.Submitted
		tenantEnergy += ts.EnergyJ
	}
	if tenantCompleted != r.Completed || tenantSubmitted != r.Submitted {
		t.Fatalf("tenant table does not add up: completed %d/%d submitted %d/%d",
			tenantCompleted, r.Completed, tenantSubmitted, r.Submitted)
	}
	if tenantEnergy <= 0 || tenantEnergy > r.ActiveEnergyJ+1e-9 {
		t.Fatalf("tenant energy %g vs active %g", tenantEnergy, r.ActiveEnergyJ)
	}
}

// TestPerTenantQueueBound floods one tenant past its queue bound and expects
// backpressure rejections, not unbounded growth.
func TestPerTenantQueueBound(t *testing.T) {
	var jobs []Job
	for i := 0; i < 6; i++ {
		jobs = append(jobs, Job{
			ID: i, Tenant: "flood", App: AppLiGen,
			LiGen:    ligenSizes[len(ligenSizes)-1],
			NominalS: 0.6, DeadlineS: 100,
		})
	}
	s := testScheduler(t, testCluster(t, 3, 2, faults.Plan{}), Config{MaxQueuedPerTenant: 1})
	r, err := s.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	// Two jobs dispatch immediately, one queues, the rest bounce.
	if r.RejectedQueueFull != 3 {
		t.Fatalf("queue-full rejections = %d, want 3 (report: %+v)", r.RejectedQueueFull, r)
	}
	if r.Completed != 3 {
		t.Fatalf("completed = %d, want 3", r.Completed)
	}
	if got := r.Tenants[0].RejectedQueueFull; got != 3 {
		t.Fatalf("tenant queue-full rejections = %d, want 3", got)
	}
}

// TestInfeasibleDeadlineRejected: a deadline no clock can meet is rejected at
// admission instead of being accepted and missed.
func TestInfeasibleDeadlineRejected(t *testing.T) {
	jobs := []Job{{
		ID: 0, Tenant: "t", App: AppLiGen,
		LiGen:    ligenSizes[len(ligenSizes)-1],
		NominalS: 0.6, ArrivalS: 0, DeadlineS: 0.001,
	}}
	s := testScheduler(t, testCluster(t, 4, 2, faults.Plan{}), Config{})
	r, err := s.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if r.RejectedInfeasible != 1 || r.Admitted != 0 {
		t.Fatalf("infeasible=%d admitted=%d, want 1/0", r.RejectedInfeasible, r.Admitted)
	}
}

// TestFailoverRequeuesAndDegrades kills one device mid-campaign: the
// scheduler must mark the loss, requeue the in-flight job and finish the
// whole stream on the survivor.
func TestFailoverRequeuesAndDegrades(t *testing.T) {
	jobs, err := GenerateStream(StreamConfig{Seed: 7, Jobs: 16}, gpusim.V100Spec())
	if err != nil {
		t.Fatal(err)
	}
	plan := faults.Plan{Seed: 2, Failures: []faults.DeviceFailure{{Device: 0, AfterSubmits: 4}}}
	s := testScheduler(t, testCluster(t, 5, 2, plan), Config{})
	r, err := s.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if r.Failovers != 1 || r.SurvivingDevices != 1 {
		t.Fatalf("failovers=%d surviving=%d, want 1/1", r.Failovers, r.SurvivingDevices)
	}
	if r.Requeues != 1 || r.Migrations < 1 {
		t.Fatalf("requeues=%d migrations=%d, want 1/>=1", r.Requeues, r.Migrations)
	}
	if r.Completed+r.Failed+r.Shed != r.Admitted {
		t.Fatalf("admitted %d jobs but accounted %d", r.Admitted, r.Completed+r.Failed+r.Shed)
	}
	if r.Completed == 0 {
		t.Fatal("nothing completed after failover")
	}
}

// TestAllDevicesLostShedsWork kills every device: in-flight and queued work
// is shed (counted against the SLO), later arrivals bounce with no-devices,
// and Run still terminates cleanly.
func TestAllDevicesLostShedsWork(t *testing.T) {
	var jobs []Job
	for i := 0; i < 6; i++ {
		jobs = append(jobs, Job{
			ID: i, Tenant: "t", App: AppLiGen,
			LiGen:    ligenSizes[len(ligenSizes)-1],
			NominalS: 0.6, ArrivalS: float64(i) * 0.01, DeadlineS: 100,
		})
	}
	jobs = append(jobs, Job{
		ID: 6, Tenant: "t", App: AppLiGen, LiGen: ligenSizes[0],
		NominalS: 0.05, ArrivalS: 50, DeadlineS: 100,
	})
	plan := faults.Plan{Seed: 8, Failures: []faults.DeviceFailure{
		{Device: 0, AfterSubmits: 1},
		{Device: 1, AfterSubmits: 2},
	}}
	s := testScheduler(t, testCluster(t, 6, 2, plan), Config{})
	r, err := s.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if r.Failovers != 2 || r.SurvivingDevices != 0 {
		t.Fatalf("failovers=%d surviving=%d, want 2/0", r.Failovers, r.SurvivingDevices)
	}
	if r.Shed == 0 {
		t.Fatal("no work shed although every device died with work queued")
	}
	if r.RejectedNoDevices == 0 {
		t.Fatal("arrivals after total capacity loss must bounce with no-devices")
	}
	if r.Completed+r.Failed+r.Shed != r.Admitted {
		t.Fatalf("admitted %d jobs but accounted %d", r.Admitted, r.Completed+r.Failed+r.Shed)
	}
	if r.MissRate() == 0 {
		t.Fatal("shed work must count against the SLO miss rate")
	}
}

// TestThrottleObservedAndRetuned runs a single throttled device: the
// scheduler must observe the effective clock dropping below the command and
// re-tune subsequent decisions against the cap.
func TestThrottleObservedAndRetuned(t *testing.T) {
	jobs, err := GenerateStream(StreamConfig{Seed: 12, Jobs: 12}, gpusim.V100Spec())
	if err != nil {
		t.Fatal(err)
	}
	plan := faults.Plan{Seed: 13, Throttles: []faults.Throttle{
		{Device: 0, FromSubmit: 1, ToSubmit: 1000, CapMHz: 1005},
	}}
	s := testScheduler(t, testCluster(t, 7, 1, plan), Config{Policy: PolicyMaxFreq})
	r, err := s.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if r.ThrottledRuns == 0 {
		t.Fatal("throttle window never observed")
	}
	if r.Retunes == 0 {
		t.Fatal("observed cap never re-tuned a decision")
	}
}

// TestRetryBudgetExhaustionFailsJob forces every submission to fault: the
// job must be abandoned after the retry budget, charged as wasted work, and
// the device stays usable.
func TestRetryBudgetExhaustionFailsJob(t *testing.T) {
	jobs := []Job{{
		ID: 0, Tenant: "t", App: AppLiGen, LiGen: ligenSizes[0],
		NominalS: 0.05, DeadlineS: 100,
	}}
	plan := faults.Plan{Seed: 14, TransientProb: 1.0}
	s := testScheduler(t, testCluster(t, 8, 1, plan), Config{})
	r, err := s.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed != 1 || r.Completed != 0 {
		t.Fatalf("failed=%d completed=%d, want 1/0", r.Failed, r.Completed)
	}
	if r.Retries == 0 || r.WastedTimeS <= 0 || r.WastedEnergyJ <= 0 {
		t.Fatalf("retry accounting broken: retries=%d wastedT=%g wastedE=%g",
			r.Retries, r.WastedTimeS, r.WastedEnergyJ)
	}
	if r.MissRate() != 1 {
		t.Fatalf("a failed job must miss its SLO; miss rate = %g", r.MissRate())
	}
}

// TestSchedulerReportIsDeterministic: identical streams, clusters and plans
// must produce byte-identical SLO reports, faults included.
func TestSchedulerReportIsDeterministic(t *testing.T) {
	jobs, err := GenerateStream(StreamConfig{Seed: 20, Jobs: 24}, gpusim.V100Spec())
	if err != nil {
		t.Fatal(err)
	}
	plan := faults.Plan{
		Seed:          21,
		TransientProb: 0.05,
		Failures:      []faults.DeviceFailure{{Device: 1, AfterSubmits: 6}},
		Throttles:     []faults.Throttle{{Device: 0, FromSubmit: 2, ToSubmit: 20, CapMHz: 1005}},
	}
	run := func() []byte {
		s := testScheduler(t, testCluster(t, 22, 2, plan), Config{})
		r, err := s.Run(jobs)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := r.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first, second := run(), run()
	if !bytes.Equal(first, second) {
		t.Fatalf("identically seeded scheduler runs diverged\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}

// TestPolicyOrdering: on the same fault-free stream the model policy must
// spend no more energy than max-frequency while admitting the same jobs
// (admission is policy-independent by construction).
func TestPolicyOrdering(t *testing.T) {
	jobs, err := GenerateStream(StreamConfig{Seed: 30, Jobs: 32}, gpusim.V100Spec())
	if err != nil {
		t.Fatal(err)
	}
	run := func(p Policy) *Report {
		s := testScheduler(t, testCluster(t, 31, 2, faults.Plan{}), Config{Policy: p})
		r, err := s.Run(jobs)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	model, maxf := run(PolicyModel), run(PolicyMaxFreq)
	if model.Admitted != maxf.Admitted || model.Rejected != maxf.Rejected {
		t.Fatalf("admission depends on policy: model %d/%d vs maxfreq %d/%d",
			model.Admitted, model.Rejected, maxf.Admitted, maxf.Rejected)
	}
	if model.ActiveEnergyJ >= maxf.ActiveEnergyJ {
		t.Fatalf("model active energy %g not below maxfreq %g", model.ActiveEnergyJ, maxf.ActiveEnergyJ)
	}
}

// ---- decide() unit tests on a synthetic curve ----

// testCurve is ascending in frequency; energy dips at the middle clock.
var testCurve = []prediction{
	{FreqMHz: 800, TimeS: 2.0, EnergyJ: 90},
	{FreqMHz: 1200, TimeS: 1.2, EnergyJ: 80},
	{FreqMHz: 1600, TimeS: 1.0, EnergyJ: 120},
}

func decideCfg() Config {
	return Config{Policy: PolicyModel, StaticFreqMHz: 1200, MaxStretch: -1}.withDefaults(1200)
}

func TestDecideMaxFreqPicksFastest(t *testing.T) {
	cfg := decideCfg()
	cfg.Policy = PolicyMaxFreq
	p, esc := decide(cfg, testCurve, 10, 0, 0, 0)
	if p.FreqMHz != 1600 || esc {
		t.Fatalf("got %+v escalated=%v", p, esc)
	}
}

func TestDecideStaticPinsClock(t *testing.T) {
	cfg := decideCfg()
	cfg.Policy = PolicyStatic
	p, esc := decide(cfg, testCurve, 10, 0, 0, 0)
	if p.FreqMHz != 1200 || esc {
		t.Fatalf("got %+v escalated=%v", p, esc)
	}
}

func TestDecideModelMinimizesEnergyUnderDeadline(t *testing.T) {
	// Plenty of slack, no guard: the cheapest clock that fits wins.
	p, esc := decide(decideCfg(), testCurve, 10, 0, 0, 0)
	if p.FreqMHz != 1200 || esc {
		t.Fatalf("got %+v escalated=%v, want 1200 MHz (cheapest feasible)", p, esc)
	}
	// Slack 2.0s with guard 0: the 800 MHz clock fits exactly and is NOT
	// cheapest; 1200 MHz still wins on energy.
	p, _ = decide(decideCfg(), testCurve, 2.0, 0, 0, 0)
	if p.FreqMHz != 1200 {
		t.Fatalf("got %d MHz, want 1200", p.FreqMHz)
	}
}

func TestDecideGuardReservesSlack(t *testing.T) {
	// Deadline 1.3s: ungated, 1200 MHz (1.2s) fits. A 0.25 guard shrinks
	// the budget to 0.975s, so only 1600 MHz... which also misses — the
	// decision escalates to the fastest clock.
	p, esc := decide(decideCfg(), testCurve, 1.3, 0, 0, 0.25)
	if p.FreqMHz != 1600 || !esc {
		t.Fatalf("got %+v escalated=%v, want escalation to 1600", p, esc)
	}
	// Deadline 1.5s with the same guard: budget 1.125s admits 1600 only.
	p, esc = decide(decideCfg(), testCurve, 1.5, 0, 0, 0.25)
	if p.FreqMHz != 1600 || esc {
		t.Fatalf("got %+v escalated=%v, want 1600 without escalation", p, esc)
	}
}

func TestDecideEscalatesWhenDeadlineUnmeetable(t *testing.T) {
	p, esc := decide(decideCfg(), testCurve, 0.5, 0, 0, 0)
	if !esc || p.FreqMHz != 1600 {
		t.Fatalf("got %+v escalated=%v, want escalation to fastest", p, esc)
	}
}

func TestDecideCapSubstitutesEffectiveSpeed(t *testing.T) {
	// Cap at 1200: the 1600 candidate is predicted at the capped clock's
	// time and energy, so it can never look better than 1200 itself.
	p, _ := decide(decideCfg(), testCurve, 10, 0, 1200, 0)
	if p.FreqMHz != 1200 {
		t.Fatalf("got %d MHz, want 1200 under cap", p.FreqMHz)
	}
	// Deadline only the uncapped 1600 could meet: under the cap nothing
	// fits, the decision escalates at capped speed.
	p, esc := decide(decideCfg(), testCurve, 1.1, 0, 1200, 0)
	if !esc {
		t.Fatalf("got %+v, want escalation under cap", p)
	}
	if p.TimeS != 1.2 {
		t.Fatalf("escalated prediction %g s, want the capped 1.2 s", p.TimeS)
	}
}

func TestDecideStretchCapBoundsBlocking(t *testing.T) {
	cfg := decideCfg()
	cfg.MaxStretch = 1.5
	// 800 MHz (2.0s) is 2x the fastest candidate (1.0s) — excluded even
	// with infinite slack; 1200 MHz (1.2x) stays eligible.
	p, esc := decide(cfg, testCurve, 1000, 0, 0, 0)
	if p.FreqMHz != 1200 || esc {
		t.Fatalf("got %+v escalated=%v, want 1200 within stretch", p, esc)
	}
	cheap := []prediction{
		{FreqMHz: 800, TimeS: 2.0, EnergyJ: 10},
		{FreqMHz: 1600, TimeS: 1.0, EnergyJ: 120},
	}
	p, _ = decide(cfg, cheap, 1000, 0, 0, 0)
	if p.FreqMHz != 1600 {
		t.Fatalf("got %d MHz; the 800 MHz bargain must be excluded by MaxStretch", p.FreqMHz)
	}
}

func TestReportMissRateCountsFailuresAndSheds(t *testing.T) {
	r := &Report{Admitted: 10, Missed: 1, Failed: 2, Shed: 3}
	if got := r.MissRate(); got != 0.6 {
		t.Fatalf("miss rate %g, want 0.6", got)
	}
	if (&Report{}).MissRate() != 0 {
		t.Fatal("empty report must have zero miss rate")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4}
	cases := []struct{ q, want float64 }{
		{0.50, 2}, {0.99, 4}, {0.25, 1}, {1.0, 4},
	}
	for _, c := range cases {
		if got := percentile(sorted, c.q); got != c.want {
			t.Errorf("p%g = %g, want %g", 100*c.q, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("empty sample must yield 0")
	}
}
