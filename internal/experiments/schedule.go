package experiments

import (
	"context"
	"fmt"
	"io"

	"dsenergy/internal/cluster"
	"dsenergy/internal/core"
	"dsenergy/internal/faults"
	"dsenergy/internal/gpusim"
	"dsenergy/internal/obs"
	"dsenergy/internal/parallel"
	"dsenergy/internal/sched"
)

// ScheduleRun is one (fault plan, policy) cell of the scheduling campaign.
type ScheduleRun struct {
	Plan   string // "fault-free" or "fault-storm"
	Policy sched.Policy
	Report *sched.Report
}

// scheduleModels trains the raw per-application predictors the scheduler
// consumes, sweeping exactly the stream's size ladders at the campaign's
// candidate clocks on a fresh single-V100 platform.
func (c Config) scheduleModels(freqs []int) (*sched.ModelSet, error) {
	p, err := c.Platform()
	if err != nil {
		return nil, err
	}
	q := p.Queues()[0] // the V100; the cluster below runs the same silicon

	ligenWLs, err := ladderWorkloads(sched.AppLiGen)
	if err != nil {
		return nil, err
	}
	cronosWLs, err := ladderWorkloads(sched.AppCronos)
	if err != nil {
		return nil, err
	}
	bc := core.BuildConfig{Freqs: freqs, Reps: c.Reps, Workers: c.Jobs}
	lds, err := core.BuildDataset(q, core.LiGenSchema(), ligenWLs, bc)
	if err != nil {
		return nil, err
	}
	cds, err := core.BuildDataset(q, core.CronosSchema(), cronosWLs, bc)
	if err != nil {
		return nil, err
	}
	lm, err := core.Train(lds, c.ForestSpec(), c.Seed+42)
	if err != nil {
		return nil, err
	}
	cm, err := core.Train(cds, c.ForestSpec(), c.Seed+43)
	if err != nil {
		return nil, err
	}
	return &sched.ModelSet{LiGen: lm, Cronos: cm}, nil
}

// ladderWorkloads returns one featured workload per rung of the scheduler
// stream's size ladder for app: the inputs the scheduling and serving models
// train on.
func ladderWorkloads(app sched.App) ([]core.FeaturedWorkload, error) {
	var jobs []sched.Job
	if app == sched.AppLiGen {
		for _, in := range sched.LiGenSizeLadder() {
			jobs = append(jobs, sched.Job{App: app, LiGen: in})
		}
	} else {
		for _, sz := range sched.CronosSizeLadder() {
			jobs = append(jobs, sched.Job{App: app, Grid: sz.Grid, Steps: sz.Steps})
		}
	}
	wls := make([]core.FeaturedWorkload, len(jobs))
	for i, j := range jobs {
		w, err := j.Workload()
		if err != nil {
			return nil, err
		}
		wls[i] = core.FeaturedWorkload{Workload: w, Features: j.Features()}
	}
	return wls, nil
}

// scheduleStormPlan is the campaign's aggressive fault plan: a permanent
// device loss mid-campaign, two staggered thermal-throttle windows, plus
// background transient kernel faults and clock-set rejections.
func (c Config) scheduleStormPlan() faults.Plan {
	return faults.Plan{
		Seed:            c.Seed + 44,
		TransientProb:   0.02,
		ClockRejectProb: 0.01,
		Failures:        []faults.DeviceFailure{{Device: 2, AfterSubmits: 40}},
		Throttles: []faults.Throttle{
			{Device: 0, FromSubmit: 10, ToSubmit: 35, CapMHz: 1005},
			{Device: 1, FromSubmit: 20, ToSubmit: 45, CapMHz: 937},
		},
	}
}

// scheduleJobs returns the campaign's stream length (default 96).
func (c Config) scheduleJobs() int {
	if c.ScheduleJobs > 0 {
		return c.ScheduleJobs
	}
	return 96
}

// Schedule runs the deadline-aware scheduling campaign: one seeded
// multi-tenant stream of LiGen screens and Cronos runs, executed on a
// 4-device V100 cluster under each frequency policy (model-driven,
// max-frequency, static baseline clock), fault-free and under the fault
// storm. The six runs fan out on the config's pool; every run gets a fresh
// identically-seeded cluster and the shared read-only models, so the result
// is byte-identical for every Jobs value.
func (c Config) Schedule() ([]ScheduleRun, error) {
	const devices = 4
	spec := gpusim.V100Spec()
	freqs := c.sweepFreqs(spec)
	models, err := c.scheduleModels(freqs)
	if err != nil {
		return nil, err
	}
	jobs, err := sched.GenerateStream(sched.StreamConfig{
		Seed: c.Seed + 45,
		Jobs: c.scheduleJobs(),
	}, spec)
	if err != nil {
		return nil, err
	}
	storm := c.scheduleStormPlan()

	runOne := func(plan faults.Plan, policy sched.Policy, o *obs.Observer) (*sched.Report, error) {
		cl, err := cluster.New(c.Seed, spec, devices, cluster.DefaultInterconnect())
		if err != nil {
			return nil, err
		}
		if err := cl.SetFaultPlan(plan, cluster.DefaultResilienceConfig()); err != nil {
			return nil, err
		}
		cl.SetObserver(o)
		s, err := sched.New(cl, sched.Config{
			Policy: policy,
			Freqs:  freqs,
			Models: models,
			Obs:    o,
		})
		if err != nil {
			return nil, err
		}
		return s.Run(jobs)
	}

	cells := []ScheduleRun{
		{Plan: "fault-free", Policy: sched.PolicyModel},
		{Plan: "fault-free", Policy: sched.PolicyMaxFreq},
		{Plan: "fault-free", Policy: sched.PolicyStatic},
		{Plan: "fault-storm", Policy: sched.PolicyModel},
		{Plan: "fault-storm", Policy: sched.PolicyMaxFreq},
		{Plan: "fault-storm", Policy: sched.PolicyStatic},
	}
	forks := c.Obs.ForkN(len(cells))
	reports, err := parallel.Map(context.Background(), len(cells), c.Jobs, func(_ context.Context, i int) (*sched.Report, error) {
		plan := faults.Plan{}
		if cells[i].Plan == "fault-storm" {
			plan = storm
		}
		return runOne(plan, cells[i].Policy, forks[i])
	})
	if err != nil {
		return nil, err
	}
	c.Obs.AbsorbAll(forks)
	for i := range cells {
		cells[i].Report = reports[i]
	}
	return cells, nil
}

// RenderSchedule runs and prints the scheduling campaign, closing with CHECK
// lines asserting the acceptance claims: under both plans the model-driven
// policy spends less total energy than the max-frequency and static
// baselines at an equal-or-lower SLO miss rate while completing at least as
// many jobs, and the storm actually exercised the robustness machinery. It
// returns the number of failed checks.
func (c Config) RenderSchedule(w io.Writer) (int, error) {
	runs, err := c.Schedule()
	if err != nil {
		return 0, err
	}
	fmt.Fprintln(w, "== deadline-aware scheduling: model-driven frequency policy vs baselines (4x V100) ==")
	byPlan := map[string]map[sched.Policy]*sched.Report{}
	for _, r := range runs {
		if byPlan[r.Plan] == nil {
			byPlan[r.Plan] = map[sched.Policy]*sched.Report{}
		}
		byPlan[r.Plan][r.Policy] = r.Report
	}
	failed := 0
	check := func(ok bool, format string, args ...any) {
		verdict := "CHECK ok:   "
		if !ok {
			verdict = "CHECK FAIL: "
			failed++
		}
		fmt.Fprintf(w, verdict+format+"\n", args...)
	}
	for _, plan := range []string{"fault-free", "fault-storm"} {
		fmt.Fprintf(w, "\n-- plan: %s --\n", plan)
		for _, policy := range []sched.Policy{sched.PolicyModel, sched.PolicyMaxFreq, sched.PolicyStatic} {
			r := byPlan[plan][policy]
			fmt.Fprintf(w, "[%s]\n", policy)
			if err := r.WriteText(w); err != nil {
				return failed, err
			}
		}
		model := byPlan[plan][sched.PolicyModel]
		for _, base := range []sched.Policy{sched.PolicyMaxFreq, sched.PolicyStatic} {
			b := byPlan[plan][base]
			check(model.TotalEnergyJ < b.TotalEnergyJ,
				"%s: model total energy %.1f J < %s %.1f J (%.1f%% saved)",
				plan, model.TotalEnergyJ, base, b.TotalEnergyJ,
				100*(1-model.TotalEnergyJ/b.TotalEnergyJ))
			check(model.MissRate() <= b.MissRate(),
				"%s: model miss rate %.2f%% <= %s %.2f%%",
				plan, 100*model.MissRate(), base, 100*b.MissRate())
			check(model.Completed >= b.Completed,
				"%s: model completed %d >= %s %d",
				plan, model.Completed, base, b.Completed)
		}
	}
	storm := byPlan["fault-storm"][sched.PolicyModel]
	check(storm.Failovers >= 1 && storm.SurvivingDevices == storm.Devices-1,
		"fault-storm: device loss survived (failovers=%d, surviving=%d/%d)",
		storm.Failovers, storm.SurvivingDevices, storm.Devices)
	check(storm.ThrottledRuns > 0 && storm.Retunes > 0,
		"fault-storm: throttle observed and re-tuned (throttled-runs=%d, retunes=%d)",
		storm.ThrottledRuns, storm.Retunes)
	check(storm.Retries > 0,
		"fault-storm: transient faults retried (retries=%d)", storm.Retries)
	return failed, nil
}
