package sched

import (
	"errors"
	"math"
	"testing"

	"dsenergy/internal/faults"
	"dsenergy/internal/gpusim"
	"dsenergy/internal/ligen"
)

// nominalS is a LiGen shape's noiseless f_max time on the V100, as
// GenerateStream sizes it.
func nominalS(t *testing.T, in ligen.Input) float64 {
	t.Helper()
	spec := gpusim.V100Spec()
	dev, err := gpusim.New(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	w, err := ligen.NewWorkload(in)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := w.AnalyticOn(dev, spec.FMaxMHz())
	return s
}

// TestRunRejectsNonFiniteJobTimes: a NaN or infinite arrival, deadline or
// nominal time stops Run with a *JobTimeError naming the job, before any
// event runs — the valid job arriving first must not have been submitted.
func TestRunRejectsNonFiniteJobTimes(t *testing.T) {
	valid := Job{ID: 1, Tenant: "t", App: AppLiGen, LiGen: ligenSizes[0], NominalS: 0.05, DeadlineS: 100}
	for _, field := range []string{"ArrivalS", "DeadlineS", "NominalS"} {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			bad := Job{ID: 7, Tenant: "t", App: AppLiGen, LiGen: ligenSizes[0], ArrivalS: 1, NominalS: 0.05, DeadlineS: 100}
			switch field {
			case "ArrivalS":
				bad.ArrivalS = v
			case "DeadlineS":
				bad.DeadlineS = v
			case "NominalS":
				bad.NominalS = v
			}
			cl := testCluster(t, 1, 1, faults.Plan{})
			_, err := testScheduler(t, cl, Config{}).Run([]Job{valid, bad})
			var te *JobTimeError
			if !errors.As(err, &te) {
				t.Fatalf("%s = %v: Run returned %v, want a *JobTimeError", field, v, err)
			}
			if te.ID != 7 || te.Field != field {
				t.Errorf("%s = %v: error names job %d field %s", field, v, te.ID, te.Field)
			}
			if n := cl.Queues()[0].EventCount(); n != 0 {
				t.Errorf("%s = %v: %d submissions ran before the error", field, v, n)
			}
		}
	}
}

// TestArrivalAdmittedBeforeTiedFree: a job arriving at exactly the time a
// device frees is admitted before that free is handled, the order of a
// queue that held every arrival ahead of the events it causes. Job a frees
// the only device at freeS, the instant long job b (loose deadline) and
// short job c (tight deadline) arrive. Admitted first, both wait for the
// device, and the free dispatches c by EDF: c meets its deadline. Were the
// free handled first, b would take the idle device on arrival and c would
// miss behind it.
func TestArrivalAdmittedBeforeTiedFree(t *testing.T) {
	small, large := ligenSizes[0], ligenSizes[len(ligenSizes)-1]
	smallS, largeS := nominalS(t, small), nominalS(t, large)
	if largeS < 4*smallS {
		t.Fatalf("ladder ends %g s and %g s are too close for the test", smallS, largeS)
	}
	run := func(jobs ...Job) *Report {
		t.Helper()
		s := testScheduler(t, testCluster(t, 9, 1, faults.Plan{}), Config{Policy: PolicyMaxFreq})
		r, err := s.Run(jobs)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a := Job{ID: 0, Tenant: "a", App: AppLiGen, LiGen: small, NominalS: smallS, DeadlineS: 1000}
	freeS := run(a).MakespanS
	b := Job{ID: 1, Tenant: "b", App: AppLiGen, LiGen: large, ArrivalS: freeS, NominalS: largeS, DeadlineS: freeS + 1000}
	c := Job{ID: 2, Tenant: "c", App: AppLiGen, LiGen: small, ArrivalS: freeS, NominalS: smallS, DeadlineS: freeS + 2*smallS}
	r := run(a, b, c)
	if r.Completed != 3 || r.Missed != 0 {
		t.Fatalf("completed %d, missed %d; want 3 and 0 (c must run first at the tie)", r.Completed, r.Missed)
	}
}
