package main

import (
	"bytes"
	"fmt"

	"dsenergy/internal/cluster"
	"dsenergy/internal/core"
	"dsenergy/internal/experiments"
	"dsenergy/internal/faults"
	"dsenergy/internal/gpusim"
	"dsenergy/internal/sched"
)

// streamJobs is the schedule_stream stream length: about 2.5 s of
// scheduling per round.
const streamJobs = 40_000

// scheduleStream is the schedule_stream workload: one fresh scheduler per
// round runs the whole seeded stream with the model policy on a fault-free
// 4×V100 cluster.
type scheduleStream struct {
	seed    uint64
	freqs   []int
	models  *sched.ModelSet
	jobs    []sched.Job
	next    *sched.Scheduler
	first   []byte // the first round's report; every round must match it
	repeats *repeatCounter[string]
}

// sweepFreqs is the candidate menu experiments.Schedule uses at
// QuickConfig: every FreqStride-th clock of the band above BandFrac·f_max,
// plus f_max and the baseline clock.
func sweepFreqs(c experiments.Config, spec gpusim.Spec) []int {
	band := spec.FreqsAbove(c.BandFrac)
	var out []int
	for i := 0; i < len(band); i += c.FreqStride {
		out = append(out, band[i])
	}
	if out[len(out)-1] != band[len(band)-1] {
		out = append(out, band[len(band)-1])
	}
	base := spec.BaselineFreqMHz()
	for i, f := range out {
		if f == base {
			return out
		}
		if f > base {
			return append(out[:i:i], append([]int{base}, out[i:]...)...)
		}
	}
	return append(out, base)
}

// setupSchedule trains the raw per-application models on the stream's size
// ladders, as experiments.Schedule does, and generates the stream.
func setupSchedule(e env) (workload, error) {
	cfg := experiments.QuickConfig()
	cfg.Seed = e.seed
	cfg.Jobs = e.workers
	cfg.Obs = e.tr.observer()
	spec := gpusim.V100Spec()
	w := &scheduleStream{seed: e.seed, freqs: sweepFreqs(cfg, spec)}

	p, err := cfg.Platform()
	if err != nil {
		return nil, err
	}
	q := p.Queues()[0]
	var ligenWLs, cronosWLs []core.FeaturedWorkload
	for _, in := range sched.LiGenSizeLadder() {
		j := sched.Job{App: sched.AppLiGen, LiGen: in}
		wl, err := j.Workload()
		if err != nil {
			return nil, err
		}
		ligenWLs = append(ligenWLs, core.FeaturedWorkload{Workload: wl, Features: j.Features()})
	}
	for _, sz := range sched.CronosSizeLadder() {
		j := sched.Job{App: sched.AppCronos, Grid: sz.Grid, Steps: sz.Steps}
		wl, err := j.Workload()
		if err != nil {
			return nil, err
		}
		cronosWLs = append(cronosWLs, core.FeaturedWorkload{Workload: wl, Features: j.Features()})
	}
	bc := core.BuildConfig{Freqs: w.freqs, Reps: cfg.Reps, Workers: cfg.Jobs}
	var lds, cds *core.Dataset
	err = e.tr.call("core.build_dataset_s", func() error {
		var err error
		if lds, err = core.BuildDataset(q, core.LiGenSchema(), ligenWLs, bc); err != nil {
			return err
		}
		cds, err = core.BuildDataset(q, core.CronosSchema(), cronosWLs, bc)
		return err
	})
	if err != nil {
		return nil, err
	}
	w.models = &sched.ModelSet{}
	err = e.tr.call("core.train_s", func() error {
		var err error
		if w.models.LiGen, err = core.Train(lds, cfg.ForestSpec(), cfg.Seed+42); err != nil {
			return err
		}
		w.models.Cronos, err = core.Train(cds, cfg.ForestSpec(), cfg.Seed+43)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = e.tr.call("sched.generate_stream_s", func() error {
		var err error
		w.jobs, err = sched.GenerateStream(sched.StreamConfig{Seed: cfg.Seed + 45, Jobs: streamJobs}, spec)
		return err
	})
	if err != nil {
		return nil, err
	}
	if e.tr != nil {
		w.repeats = &repeatCounter[string]{}
	}
	return w, nil
}

// prepare builds the round's cluster and scheduler, and in traced rounds
// counts the inputs the round will repeat: a job's input is its shape.
func (w *scheduleStream) prepare(tr *tracer) error {
	if tr != nil {
		for _, j := range w.jobs {
			w.repeats.add(fmt.Sprint(j.App, j.Features()))
		}
	}
	spec := gpusim.V100Spec()
	cl, err := cluster.New(w.seed, spec, 4, cluster.DefaultInterconnect())
	if err != nil {
		return err
	}
	if err := cl.SetFaultPlan(faults.Plan{}, cluster.DefaultResilienceConfig()); err != nil {
		return err
	}
	o := tr.observer()
	cl.SetObserver(o)
	w.next, err = sched.New(cl, sched.Config{Policy: sched.PolicyModel, Freqs: w.freqs, Models: w.models, Obs: o})
	return err
}

func (w *scheduleStream) round(tr *tracer) (roundOut, error) {
	var rep *sched.Report
	err := tr.call("sched.run_s", func() error {
		var err error
		rep, err = w.next.Run(w.jobs)
		return err
	})
	if err != nil {
		return roundOut{}, err
	}
	out := roundOut{
		ops:      rep.Submitted,
		failed:   rep.Rejected + rep.Missed + rep.Failed + rep.Shed,
		energyJ:  rep.TotalEnergyJ,
		answered: rep.Completed,
	}
	if rep.Submitted != len(w.jobs) || rep.Completed+rep.Rejected+rep.Failed+rep.Shed != rep.Submitted {
		out.problems = append(out.problems, fmt.Sprintf("sched accounting: %d submitted of %d jobs, %d completed + %d rejected + %d failed + %d shed",
			rep.Submitted, len(w.jobs), rep.Completed, rep.Rejected, rep.Failed, rep.Shed))
	}
	var text bytes.Buffer
	if err := rep.WriteText(&text); err != nil {
		return out, err
	}
	if w.first == nil {
		w.first = text.Bytes()
	} else if !bytes.Equal(text.Bytes(), w.first) {
		out.problems = append(out.problems, "sched report differs between rounds of one seed")
	}
	tr.set("sched.admitted", float64(rep.Admitted))
	tr.set("sched.escalations", float64(rep.Escalations))
	tr.set("sched.deferrals", float64(rep.Deferrals))
	tr.set("sched.migrations", float64(rep.Migrations))
	return out, nil
}

func (w *scheduleStream) repeatFrac() float64 {
	if w.repeats == nil {
		return 0
	}
	return w.repeats.frac()
}
