package sched

import (
	"math"
	"slices"
	"strings"
	"testing"

	"dsenergy/internal/faults"
	"dsenergy/internal/ligen"
	"dsenergy/internal/synergy"
)

// TestShapeTableMatchesPerJobPrediction runs a stream that repeats two LiGen
// and two Cronos shapes, plus one Cronos job that shares a grid with another
// but runs more steps. Every job's shared curve must be bit-identical to
// predicting that job alone, and its shared kernel list must equal the one
// its own workload enumerates: a key that dropped Steps would hand the
// longer run the shorter run's kernels.
func TestShapeTableMatchesPerJobPrediction(t *testing.T) {
	lig, cro := LiGenSizeLadder(), CronosSizeLadder()
	var jobs []Job
	for i := 0; i < 12; i++ {
		j := Job{ID: i, Tenant: "t", ArrivalS: float64(i) * 2, NominalS: 1}
		j.DeadlineS = j.ArrivalS + 100
		if i%2 == 0 {
			j.App, j.LiGen = AppLiGen, lig[i/2%2]
		} else {
			j.App, j.Grid, j.Steps = AppCronos, cro[i/2%2].Grid, cro[i/2%2].Steps
		}
		jobs = append(jobs, j)
	}
	longer := Job{ID: 12, Tenant: "t", App: AppCronos, Grid: cro[0].Grid, Steps: cro[0].Steps + 4,
		ArrivalS: 24, DeadlineS: 124, NominalS: 1}
	jobs = append(jobs, longer)

	models, freqs := testModels(t), testFreqs(t)
	s := testScheduler(t, testCluster(t, 8, 4, faults.Plan{}), Config{Models: models, Freqs: freqs})
	r, err := s.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed != len(jobs) {
		t.Fatalf("completed %d of %d jobs; every job must dispatch to fill its kernel list", r.Completed, len(jobs))
	}
	if len(s.shapes) != 5 {
		t.Fatalf("the table holds %d shapes, want 5", len(s.shapes))
	}
	for _, j := range jobs {
		sh, err := s.shapeOf(j)
		if err != nil {
			t.Fatal(err)
		}
		want, err := models.curves(j, freqs)
		if err != nil {
			t.Fatal(err)
		}
		if len(sh.curve) != len(want) {
			t.Fatalf("job %d: curve has %d points, want %d", j.ID, len(sh.curve), len(want))
		}
		for i, p := range want {
			got := sh.curve[i]
			if got.FreqMHz != p.FreqMHz || math.Float64bits(got.TimeS) != math.Float64bits(p.TimeS) ||
				math.Float64bits(got.EnergyJ) != math.Float64bits(p.EnergyJ) {
				t.Fatalf("job %d point %d: shared %+v, predicted alone %+v", j.ID, i, got, p)
			}
		}
		w, err := j.Workload()
		if err != nil {
			t.Fatal(err)
		}
		if wantK := w.(synergy.KernelProfiler).Profiles(); !slices.Equal(sh.kernels, wantK) {
			t.Fatalf("job %d: shared kernel list %+v, its workload's %+v", j.ID, sh.kernels, wantK)
		}
	}
	if len(s.shapes) != 5 {
		t.Fatalf("looking the jobs up grew the table to %d shapes", len(s.shapes))
	}
}

// TestShapeKernelsBuiltOnFirstDispatch: a job whose LiGen input cannot build
// a workload must not fail the run when admission rejects it, because its
// kernel list is built only when it first dispatches. Admitted, it still
// fails the run at dispatch.
func TestShapeKernelsBuiltOnFirstDispatch(t *testing.T) {
	bad := Job{ID: 0, Tenant: "t", App: AppLiGen, LiGen: ligen.Input{Ligands: 0, Atoms: 31, Fragments: 8},
		NominalS: 1, DeadlineS: 0.001}
	if _, err := bad.Workload(); err == nil {
		t.Fatal("the input must be invalid for this test")
	}
	s := testScheduler(t, testCluster(t, 9, 2, faults.Plan{}), Config{})
	r, err := s.Run([]Job{bad})
	if err != nil {
		t.Fatalf("a job rejected at admission failed the run: %v", err)
	}
	if r.RejectedInfeasible != 1 {
		t.Fatalf("infeasible rejections = %d, want 1", r.RejectedInfeasible)
	}

	bad.DeadlineS = 100
	s = testScheduler(t, testCluster(t, 9, 2, faults.Plan{}), Config{})
	if _, err := s.Run([]Job{bad}); err == nil || !strings.Contains(err.Error(), "invalid input") {
		t.Fatalf("dispatching the invalid job returned %v, want its workload error", err)
	}
}

// TestShapeLookupDoesNotAllocate: once a shape is in the table, admitting
// another job of it allocates nothing.
func TestShapeLookupDoesNotAllocate(t *testing.T) {
	s := testScheduler(t, testCluster(t, 10, 1, faults.Plan{}), Config{})
	sz := CronosSizeLadder()[1]
	j := Job{ID: 3, Tenant: "t", App: AppCronos, Grid: sz.Grid, Steps: sz.Steps}
	first, err := s.shapeOf(j)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		j.ID++
		sh, err := s.shapeOf(j)
		if err != nil || sh != first {
			t.Fatalf("lookup returned %p, %v; want the first entry %p", sh, err, first)
		}
	})
	if allocs != 0 {
		t.Errorf("looking up a known shape allocates %v times, want 0", allocs)
	}
}
