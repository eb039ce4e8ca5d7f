package sched

import (
	"fmt"
	"math"
	"slices"

	"dsenergy/internal/cronos"
	"dsenergy/internal/gpusim"
	"dsenergy/internal/ligen"
	"dsenergy/internal/synergy"
	"dsenergy/internal/xrand"
)

// App identifies which of the paper's two applications a job runs.
type App int

const (
	// AppLiGen is a virtual-screening campaign slice (drug discovery).
	AppLiGen App = iota
	// AppCronos is an MHD simulation run (magnetohydrodynamics).
	AppCronos
)

// String returns the application name.
func (a App) String() string {
	switch a {
	case AppLiGen:
		return "ligen"
	case AppCronos:
		return "cronos"
	default:
		return fmt.Sprintf("App(%d)", int(a))
	}
}

// Job is one unit of tenant work: an application run with an arrival time, a
// size (the domain-specific input the paper's models are trained on), and a
// completion deadline. NominalS is the noiseless f_max execution time the
// deadline was sized from; it gives every job a model-independent notion of
// "how long this should take", so deadline tightness is a property of the
// stream, not of any predictor.
type Job struct {
	ID     int
	Tenant string
	App    App

	// LiGen is the library shape (AppLiGen jobs).
	LiGen ligen.Input
	// Grid and Steps describe the simulation (AppCronos jobs).
	Grid  [3]int
	Steps int

	ArrivalS  float64
	DeadlineS float64
	NominalS  float64
}

// Features returns the domain-specific model input of the job (Table 2): the
// library shape for LiGen, the grid dimensions for Cronos.
func (j Job) Features() []float64 {
	if j.App == AppLiGen {
		return []float64{float64(j.LiGen.Ligands), float64(j.LiGen.Atoms), float64(j.LiGen.Fragments)}
	}
	return []float64{float64(j.Grid[0]), float64(j.Grid[1]), float64(j.Grid[2])}
}

// Workload builds the executable workload of the job.
func (j Job) Workload() (synergy.Workload, error) {
	if j.App == AppLiGen {
		return ligen.NewWorkload(j.LiGen)
	}
	return cronos.NewWorkload(j.Grid[0], j.Grid[1], j.Grid[2], j.Steps)
}

// StreamConfig controls the seeded multi-tenant job stream.
type StreamConfig struct {
	// Seed drives every draw of the stream (sizes, arrivals, slacks).
	Seed uint64
	// Jobs is the total job count (at least 1).
	Jobs int
}

// DefaultTenants are the stream's campaign owners; each job's tenant is a
// uniform draw from them.
func DefaultTenants() []string { return []string{"chem-eu", "exscalate", "mhd-lab"} }

// LiGenFrac is the probability a job is a LiGen screen, the mixed-stream
// balance; the rest are Cronos runs.
const LiGenFrac float64 = 0.55

// MeanInterarrivalS scales the exponential interarrival gaps, in simulated
// seconds: roughly 65% utilization of a 4-device cluster at the ladders'
// mean nominal time, so queues form without saturating.
const MeanInterarrivalS float64 = 0.08

// SlackMin and SlackMax bound the uniform deadline slack multiplier applied
// to the job's nominal f_max time: deadline = arrival + max(slack · nominal,
// SlackFloorS). Values below ~1.5 make deadlines unmeetable behind any
// queue; these leave room for down-clocking without making every deadline
// trivial.
const (
	SlackMin float64 = 3
	SlackMax float64 = 8
)

// SlackFloorS is the minimum absolute deadline slack in simulated seconds.
// Without a floor, the smallest jobs carry millisecond-scale deadlines no
// non-preemptive scheduler can honor behind a single in-flight job — an SLO
// no operator would sign.
const SlackFloorS float64 = 1.0

// ligenSizes is the LiGen job-size ladder (library shapes drawn uniformly),
// spanning ~0.04-0.64 s of nominal f_max time per screen.
var ligenSizes = []ligen.Input{
	{Ligands: 1024, Atoms: 63, Fragments: 8},
	{Ligands: 2048, Atoms: 31, Fragments: 16},
	{Ligands: 4096, Atoms: 89, Fragments: 8},
	{Ligands: 8192, Atoms: 63, Fragments: 8},
	{Ligands: 16384, Atoms: 63, Fragments: 8},
}

// CronosSize is one rung of the Cronos job-size ladder.
type CronosSize struct {
	Grid  [3]int
	Steps int
}

// cronosSizes is the Cronos job-size ladder. Steps is a fixed function of
// the grid, so the model schema's three grid features determine the job cost
// in training and stream alike.
var cronosSizes = []CronosSize{
	{[3]int{128, 64, 64}, 8},
	{[3]int{160, 64, 64}, 10},
	{[3]int{192, 96, 96}, 10},
	{[3]int{256, 128, 128}, 12},
}

// LiGenSizeLadder returns the stream's LiGen shapes — the inputs a scheduler
// deployment trains its LiGen model on.
func LiGenSizeLadder() []ligen.Input { return slices.Clone(ligenSizes) }

// CronosSizeLadder returns the stream's Cronos sizes — the inputs a
// scheduler deployment trains its Cronos model on.
func CronosSizeLadder() []CronosSize { return slices.Clone(cronosSizes) }

// GenerateStream draws a deterministic mixed job stream against a reference
// device spec: arrivals are exponential, sizes come from the two ladders
// above, tenants are drawn uniformly, and each job's deadline is its arrival
// plus a uniform slack multiple of its noiseless f_max execution time on the
// reference device. Identical configs produce identical streams.
func GenerateStream(cfg StreamConfig, ref gpusim.Spec) ([]Job, error) {
	if cfg.Jobs < 1 {
		return nil, fmt.Errorf("sched: stream needs at least 1 job, got %d", cfg.Jobs)
	}
	// The reference device evaluates noiseless nominal times; its seed is
	// irrelevant (Analytic never touches the noise stream) but must be fixed.
	dev, err := gpusim.New(ref, 0)
	if err != nil {
		return nil, err
	}
	fmax := ref.FMaxMHz()
	// A job's nominal time depends only on its rung, so each rung is
	// evaluated once, before any draw.
	ligenNominalS := make([]float64, len(ligenSizes))
	for i, in := range ligenSizes {
		w, err := ligen.NewWorkload(in)
		if err != nil {
			return nil, err
		}
		ligenNominalS[i], _ = w.AnalyticOn(dev, fmax)
	}
	cronosNominalS := make([]float64, len(cronosSizes))
	for i, sz := range cronosSizes {
		w, err := cronos.NewWorkload(sz.Grid[0], sz.Grid[1], sz.Grid[2], sz.Steps)
		if err != nil {
			return nil, err
		}
		cronosNominalS[i], _ = w.AnalyticOn(dev, fmax)
	}

	tenants := DefaultTenants()
	rng := xrand.New(cfg.Seed)
	jobs := make([]Job, 0, cfg.Jobs)
	var clock float64
	for i := 0; i < cfg.Jobs; i++ {
		// Exponential interarrival gap: -mean · ln(1-U).
		clock += -MeanInterarrivalS * math.Log(1-rng.Float64())
		j := Job{
			ID:       i,
			Tenant:   tenants[rng.Intn(len(tenants))],
			ArrivalS: clock,
		}
		if rng.Float64() < LiGenFrac {
			rung := rng.Intn(len(ligenSizes))
			j.App = AppLiGen
			j.LiGen, j.NominalS = ligenSizes[rung], ligenNominalS[rung]
		} else {
			rung := rng.Intn(len(cronosSizes))
			j.App = AppCronos
			j.Grid, j.Steps, j.NominalS = cronosSizes[rung].Grid, cronosSizes[rung].Steps, cronosNominalS[rung]
		}
		slack := SlackMin + (SlackMax-SlackMin)*rng.Float64()
		slackS := slack * j.NominalS
		if slackS < SlackFloorS {
			slackS = SlackFloorS
		}
		j.DeadlineS = j.ArrivalS + slackS
		jobs = append(jobs, j)
	}
	return jobs, nil
}
