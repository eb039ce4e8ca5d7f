package experiments

import (
	"context"
	"fmt"

	"dsenergy/internal/cronos"
	"dsenergy/internal/ligen"
	"dsenergy/internal/parallel"
	"dsenergy/internal/pareto"
	"dsenergy/internal/synergy"
)

// CharPoint is one frequency configuration's outcome in a characterization
// sweep: raw and baseline-normalized.
type CharPoint struct {
	FreqMHz    int
	TimeS      float64
	EnergyJ    float64
	Speedup    float64
	NormEnergy float64
	OnPareto   bool
}

// Series is one labelled sweep (one workload on one device).
type Series struct {
	Label  string
	Device string
	Points []CharPoint
	// ParetoFreqs lists the Pareto-optimal frequencies of the sweep.
	ParetoFreqs []int
}

// Figure is a regenerated characterization figure.
type Figure struct {
	ID     string
	Title  string
	Series []Series
	Notes  []string
}

// seriesJob names one characterization series to measure: a workload on a
// device index, with its display label.
type seriesJob struct {
	devIdx int
	w      synergy.Workload
	label  string
}

// sweepSeriesSet measures a figure's series on the config's worker pool.
// Every series runs on its own identically seeded platform, so each depends
// only on (config, job) — never on the other series or on scheduling — and
// within a series the frequency sweep itself fans out through SweepSet.
// Series are normalized to their own baseline measurement, so the private
// platforms change nothing physical; they are what makes the fan-out
// deterministic. Observer forks follow the same discipline: one child per
// series, pre-split in job order, absorbed after every series succeeded.
func (c Config) sweepSeriesSet(jobs []seriesJob) ([]Series, error) {
	forks := c.Obs.ForkN(len(jobs))
	out, err := parallel.Map(context.Background(), len(jobs), c.Jobs, func(_ context.Context, i int) (Series, error) {
		sc := c
		sc.Obs = forks[i]
		p, err := sc.Platform()
		if err != nil {
			return Series{}, err
		}
		return sc.sweepSeries(p.Queues()[jobs[i].devIdx], jobs[i].w, jobs[i].label)
	})
	if err != nil {
		return nil, err
	}
	c.Obs.AbsorbAll(forks)
	return out, nil
}

// sweepSeries measures w on q across the config's sweep and builds the
// normalized series with its Pareto front.
func (c Config) sweepSeries(q *synergy.Queue, w synergy.Workload, label string) (Series, error) {
	freqs := c.sweepFreqs(q.Spec())
	sets, err := synergy.SweepSet(q, []synergy.Workload{w}, freqs, c.Reps, c.Jobs)
	if err != nil {
		return Series{}, err
	}
	ms := sets[0]
	base := q.BaselineFreqMHz()
	var ref *synergy.Measurement
	for i := range ms {
		if ms[i].FreqMHz == base {
			ref = &ms[i]
			break
		}
	}
	if ref == nil {
		return Series{}, fmt.Errorf("experiments: baseline %d MHz missing from sweep", base)
	}
	s := Series{Label: label, Device: q.Spec().Name}
	pts := make([]pareto.Point, 0, len(ms))
	for _, m := range ms {
		p := CharPoint{
			FreqMHz: m.FreqMHz, TimeS: m.TimeS, EnergyJ: m.EnergyJ,
			Speedup:    ref.TimeS / m.TimeS,
			NormEnergy: m.EnergyJ / ref.EnergyJ,
		}
		s.Points = append(s.Points, p)
		pts = append(pts, pareto.Point{FreqMHz: m.FreqMHz, Speedup: p.Speedup, NormEnergy: p.NormEnergy})
	}
	front := pareto.Front(pts)
	onFront := map[int]bool{}
	for _, p := range front {
		onFront[p.FreqMHz] = true
		s.ParetoFreqs = append(s.ParetoFreqs, p.FreqMHz)
	}
	for i := range s.Points {
		s.Points[i].OnPareto = onFront[s.Points[i].FreqMHz]
	}
	return s, nil
}

// cronosWorkload builds the Cronos workload for a grid under this config.
func (c Config) cronosWorkload(g [3]int) (cronos.Workload, error) {
	return cronos.NewWorkload(g[0], g[1], g[2], c.CronosSteps)
}

// Fig1 regenerates Figure 1: LiGen and Cronos multi-objective
// characterization on the V100 with Pareto fronts.
func (c Config) Fig1() (Figure, error) {
	lw, err := ligen.NewWorkload(ligen.Input{Ligands: 4096, Atoms: 63, Fragments: 8})
	if err != nil {
		return Figure{}, err
	}
	cw, err := c.cronosWorkload([3]int{80, 32, 32})
	if err != nil {
		return Figure{}, err
	}
	series, err := c.sweepSeriesSet([]seriesJob{
		{devIdx: 0, w: lw, label: "LiGen"}, // V100
		{devIdx: 0, w: cw, label: "Cronos"},
	})
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "fig1",
		Title:  "LiGen and Cronos multi-objective characterization (V100)",
		Series: series,
	}, nil
}

// Fig2 regenerates Figure 2: LiGen small vs large input on the V100.
func (c Config) Fig2() (Figure, error) {
	return c.ligenPanels("fig2",
		"LiGen characterization with small (2x89x8) and large (10000x89x20) inputs (V100)",
		0, []ligen.Input{
			{Ligands: 2, Atoms: 89, Fragments: 8},
			{Ligands: 10000, Atoms: 89, Fragments: 20},
		}, []string{"small (2 lig x 89 at x 8 fr)", "large (10000 lig x 89 at x 20 fr)"})
}

// Fig3 regenerates Figure 3: Cronos small vs large input on the V100.
func (c Config) Fig3() (Figure, error) {
	return c.cronosPanels("fig3",
		"Cronos characterization with input sizes 20x8x8 and 160x64x64 (V100)",
		0, [][3]int{{20, 8, 8}, {160, 64, 64}})
}

// Fig4 regenerates Figure 4: Cronos 10x4x4 vs 160x64x64 on the V100.
func (c Config) Fig4() (Figure, error) {
	return c.cronosPanels("fig4",
		"Cronos characterization with small (10x4x4) and large (160x64x64) grids (V100)",
		0, [][3]int{{10, 4, 4}, {160, 64, 64}})
}

// Fig5 regenerates Figure 5: the same grids on the AMD MI100 (auto
// performance level baseline).
func (c Config) Fig5() (Figure, error) {
	return c.cronosPanels("fig5",
		"Cronos characterization with small (10x4x4) and large (160x64x64) grids (MI100)",
		1, [][3]int{{10, 4, 4}, {160, 64, 64}})
}

func (c Config) cronosPanels(id, title string, devIdx int, grids [][3]int) (Figure, error) {
	jobs := make([]seriesJob, 0, len(grids))
	for _, g := range grids {
		w, err := c.cronosWorkload(g)
		if err != nil {
			return Figure{}, err
		}
		jobs = append(jobs, seriesJob{devIdx: devIdx, w: w, label: fmt.Sprintf("%dx%dx%d", g[0], g[1], g[2])})
	}
	series, err := c.sweepSeriesSet(jobs)
	if err != nil {
		return Figure{}, err
	}
	return Figure{ID: id, Title: title, Series: series}, nil
}

func (c Config) ligenPanels(id, title string, devIdx int, inputs []ligen.Input, labels []string) (Figure, error) {
	jobs := make([]seriesJob, 0, len(inputs))
	for i, in := range inputs {
		w, err := ligen.NewWorkload(in)
		if err != nil {
			return Figure{}, err
		}
		label := in.String()
		if labels != nil {
			label = labels[i]
		}
		jobs = append(jobs, seriesJob{devIdx: devIdx, w: w, label: label})
	}
	series, err := c.sweepSeriesSet(jobs)
	if err != nil {
		return Figure{}, err
	}
	return Figure{ID: id, Title: title, Series: series}, nil
}

// Fig6 regenerates Figure 6: LiGen raw energy/time on the V100, 100000
// ligands, panels for 31 and 89 atoms, one series per fragment count.
func (c Config) Fig6() (Figure, error) { return c.ligenScaling("fig6", 0, true) }

// Fig7 regenerates Figure 7: the fragment-scaling panels on the MI100.
func (c Config) Fig7() (Figure, error) { return c.ligenScaling("fig7", 1, true) }

// Fig8 regenerates Figure 8: LiGen on the V100 with fixed fragments (4, 20)
// scaling atoms (31, 63, 74, 89).
func (c Config) Fig8() (Figure, error) { return c.ligenScaling("fig8", 0, false) }

// Fig9 regenerates Figure 9: the atom-scaling panels on the MI100.
func (c Config) Fig9() (Figure, error) { return c.ligenScaling("fig9", 1, false) }

// ligenScaling builds the raw energy-vs-time scaling figures. byFragment
// selects Figure 6/7 (fixed atoms, series per fragment count); otherwise
// Figure 8/9 (fixed fragments, series per atom count).
func (c Config) ligenScaling(id string, devIdx int, byFragment bool) (Figure, error) {
	p, err := c.Platform()
	if err != nil {
		return Figure{}, err
	}
	devName := p.Queues()[devIdx].Spec().Name
	const ligands = 100000
	fig := Figure{ID: id, Notes: []string{"raw joules vs seconds (not normalized), 100000 ligands"}}
	var jobs []seriesJob
	addJob := func(atoms, frags int, label string) error {
		w, err := ligen.NewWorkload(ligen.Input{Ligands: ligands, Atoms: atoms, Fragments: frags})
		if err != nil {
			return err
		}
		jobs = append(jobs, seriesJob{devIdx: devIdx, w: w, label: label})
		return nil
	}
	if byFragment {
		fig.Title = fmt.Sprintf("LiGen energy/time scaling fragments on %s", devName)
		for _, atoms := range []int{31, 89} {
			for _, frags := range []int{4, 8, 16, 20} {
				if err := addJob(atoms, frags, fmt.Sprintf("%d atoms, %d frags", atoms, frags)); err != nil {
					return Figure{}, err
				}
			}
		}
	} else {
		fig.Title = fmt.Sprintf("LiGen energy/time scaling atoms on %s", devName)
		for _, frags := range []int{4, 20} {
			for _, atoms := range []int{31, 63, 74, 89} {
				if err := addJob(atoms, frags, fmt.Sprintf("%d frags, %d atoms", frags, atoms)); err != nil {
					return Figure{}, err
				}
			}
		}
	}
	fig.Series, err = c.sweepSeriesSet(jobs)
	if err != nil {
		return Figure{}, err
	}
	return fig, nil
}

// Fig10 regenerates Figure 10: LiGen small (256x31x4) vs large (10000x89x20)
// inputs on both devices, with Pareto fronts.
func (c Config) Fig10() (Figure, error) {
	inputs := []ligen.Input{
		{Ligands: 256, Atoms: 31, Fragments: 4},
		{Ligands: 10000, Atoms: 89, Fragments: 20},
	}
	var jobs []seriesJob
	for devIdx := 0; devIdx < 2; devIdx++ {
		for _, in := range inputs {
			w, err := ligen.NewWorkload(in)
			if err != nil {
				return Figure{}, err
			}
			jobs = append(jobs, seriesJob{devIdx: devIdx, w: w, label: in.String()})
		}
	}
	series, err := c.sweepSeriesSet(jobs)
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "fig10",
		Title:  "LiGen characterization, small and large inputs, V100 and MI100",
		Series: series,
	}, nil
}
