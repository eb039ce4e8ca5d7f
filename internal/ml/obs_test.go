package ml

import (
	"bytes"
	"strings"
	"testing"

	"dsenergy/internal/obs"
	"dsenergy/internal/xrand"
)

func TestObserverDoesNotPerturbTraining(t *testing.T) {
	X, y := synthLinear(xrand.New(21), 120, 0.2)
	fit := func(o *obs.Observer) *Forest {
		m := NewForest(ForestConfig{NumTrees: 12, Seed: 7, Obs: o})
		if err := m.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		return m
	}
	plain, observed := fit(nil), fit(obs.NewObserver())
	probe := []float64{3.3, 4.4}
	if pa, pb := plain.Predict(probe), observed.Predict(probe); pa != pb {
		t.Errorf("observer changed forest prediction: %g vs %g", pa, pb)
	}

	base, err := kfoldMAPE(Spec{Algorithm: "forest", Params: map[string]float64{"n_estimators": 8}}, X, y, 4, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := kfoldMAPE(Spec{Algorithm: "forest", Params: map[string]float64{"n_estimators": 8}, Obs: obs.NewObserver()}, X, y, 4, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if base != got {
		t.Errorf("observer changed k-fold MAPE: %g vs %g", base, got)
	}
}

func TestTrainingCountersAreScheduleIndependent(t *testing.T) {
	X, y := synthLinear(xrand.New(22), 100, 0.1)
	// The folds run serially; each fold's forest grows its trees on a
	// worker pool, so two runs see different schedules.
	counts := func() (uint64, uint64, string) {
		o := obs.NewObserver()
		spec := Spec{Algorithm: "forest", Params: map[string]float64{"n_estimators": 6}, Obs: o}
		if _, err := kfoldMAPE(spec, X, y, 5, 1, nil); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := o.WriteMetricsText(&buf); err != nil {
			t.Fatal(err)
		}
		m := o.Metrics()
		return m.Counter("ml_cv_folds_total").Value(), m.Counter("ml_trees_trained_total").Value(), buf.String()
	}
	f1, tr1, e1 := counts()
	f2, tr2, e2 := counts()
	if f1 != 5 || f2 != 5 {
		t.Errorf("fold counters = %d / %d, want 5", f1, f2)
	}
	if tr1 != 30 || tr2 != 30 {
		t.Errorf("tree counters = %d / %d, want 30 (5 folds x 6 trees)", tr1, tr2)
	}
	if e1 != e2 {
		t.Errorf("metric exports differ between runs:\n%s\nvs\n%s", e1, e2)
	}
}

func TestGridSearchRecordsPointsAndPhases(t *testing.T) {
	X, y := synthLinear(xrand.New(23), 80, 0.1)
	o := obs.NewObserver()
	base := Spec{Algorithm: "forest", Params: map[string]float64{"n_estimators": 4}, Obs: o}
	grid := map[string][]float64{"max_depth": {2, 4}, "min_samples_leaf": {1, 2}}
	if _, err := GridSearchParallel(base, grid, X, y, 3, 1, 4); err != nil {
		t.Fatal(err)
	}
	if got := o.Metrics().Counter("ml_grid_points_total").Value(); got != 4 {
		t.Errorf("grid point counter = %d, want 4", got)
	}
	var buf bytes.Buffer
	if err := o.WriteProfileText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{"ml.grid.point", "ml.cv.fold", "ml.forest.tree"} {
		if !strings.Contains(buf.String(), phase) {
			t.Errorf("profile dump missing phase %q:\n%s", phase, buf.String())
		}
	}
}
