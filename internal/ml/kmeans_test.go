package ml

import (
	"fmt"
	"math"
	"testing"

	"dsenergy/internal/xrand"
)

// threeBlobs builds well-separated Gaussian clusters.
func threeBlobs(rng *xrand.Rand, per int) ([][]float64, []int) {
	centers := [][]float64{{0, 0}, {10, 0}, {0, 10}}
	var X [][]float64
	var labels []int
	for c, cent := range centers {
		for i := 0; i < per; i++ {
			X = append(X, []float64{
				cent[0] + 0.5*rng.Norm(),
				cent[1] + 0.5*rng.Norm(),
			})
			labels = append(labels, c)
		}
	}
	return X, labels
}

func TestKMeansRecoversBlobs(t *testing.T) {
	X, labels := threeBlobs(xrand.New(1), 50)
	km := NewKMeans(3)
	if err := km.Fit(X, 7); err != nil {
		t.Fatal(err)
	}
	// Every true cluster must map to exactly one predicted cluster.
	assign := km.Assignments(X)
	mapping := map[int]map[int]int{}
	for i := range X {
		if mapping[labels[i]] == nil {
			mapping[labels[i]] = map[int]int{}
		}
		mapping[labels[i]][assign[i]]++
	}
	used := map[int]bool{}
	for truth, preds := range mapping {
		best, bc := -1, -1
		for p, c := range preds {
			if c > bc {
				best, bc = p, c
			}
		}
		if float64(bc) < 0.95*50 {
			t.Errorf("cluster %d fragmented: %v", truth, preds)
		}
		if used[best] {
			t.Errorf("two true clusters map to predicted cluster %d", best)
		}
		used[best] = true
	}
}

func TestKMeansInertiaDecreasesWithK(t *testing.T) {
	X, _ := threeBlobs(xrand.New(2), 40)
	var prev float64 = math.Inf(1)
	for _, k := range []int{1, 2, 3} {
		km := NewKMeans(k)
		if err := km.Fit(X, 3); err != nil {
			t.Fatal(err)
		}
		if km.Inertia > prev {
			t.Errorf("inertia increased from k-1 to k=%d: %g > %g", k, km.Inertia, prev)
		}
		prev = km.Inertia
	}
}

func TestKMeansValidation(t *testing.T) {
	if err := NewKMeans(2).Fit(nil, 1); err == nil {
		t.Error("expected error for empty data")
	}
	if err := NewKMeans(5).Fit([][]float64{{1}, {2}}, 1); err == nil {
		t.Error("expected error for k > n")
	}
	if err := NewKMeans(0).Fit([][]float64{{1}}, 1); err == nil {
		t.Error("expected error for k = 0")
	}
	if err := NewKMeans(1).Fit([][]float64{{1, 2}, {1}}, 1); err == nil {
		t.Error("expected error for ragged rows")
	}
}

func TestKMeansDeterministic(t *testing.T) {
	X, _ := threeBlobs(xrand.New(4), 30)
	a, b := NewKMeans(3), NewKMeans(3)
	if err := a.Fit(X, 11); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(X, 11); err != nil {
		t.Fatal(err)
	}
	if a.Inertia != b.Inertia {
		t.Errorf("identically seeded fits differ: %g vs %g", a.Inertia, b.Inertia)
	}
}

func TestKMeansDuplicatePoints(t *testing.T) {
	X := [][]float64{{1, 1}, {1, 1}, {1, 1}, {5, 5}}
	km := NewKMeans(2)
	if err := km.Fit(X, 1); err != nil {
		t.Fatal(err)
	}
	if km.Inertia > 1e-9 {
		t.Errorf("two distinct locations, two clusters: inertia %g, want 0", km.Inertia)
	}
}

func TestPermutationImportanceFindsRelevantFeature(t *testing.T) {
	rng := xrand.New(5)
	n := 300
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		rel, junk := rng.Float64()*10, rng.Float64()*10
		X[i] = []float64{rel, junk}
		y[i] = 3 * rel
	}
	m := NewForest(ForestConfig{NumTrees: 25, Seed: 1})
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	imp, err := PermutationImportance(m, X, y, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if imp[0] <= 10*math.Max(imp[1], 1e-9) && imp[0] <= imp[1]+0.05 {
		t.Errorf("relevant feature importance %g not dominating junk %g", imp[0], imp[1])
	}
}

// TestPermutationImportanceChecksWidth: a row too short or too wide for the
// model would be scored through Predict's 0 or with a column ignored, so
// importance on a mis-shaped X is an error, never a plausible number.
func TestPermutationImportanceChecksWidth(t *testing.T) {
	X, y := benchData(60)
	m := NewForest(ForestConfig{NumTrees: 5, Seed: 1})
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{3, 5} {
		Xw := make([][]float64, len(X))
		for i, row := range X {
			Xw[i] = append(append([]float64(nil), row...), 1)[:width]
		}
		_, err := PermutationImportance(m, Xw, y, 1, 1)
		if want := fmt.Sprintf("ml: %d features, model expects 4", width); err == nil || err.Error() != want {
			t.Errorf("width-%d X on a width-4 forest: error %v, want %q", width, err, want)
		}
	}
	if _, err := PermutationImportance(m, X, y, 1, 1); err != nil {
		t.Errorf("width-4 X: %v", err)
	}
}

func TestForestFeatureImportance(t *testing.T) {
	rng := xrand.New(6)
	n := 300
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		rel, junk := rng.Float64()*10, rng.Float64()
		X[i] = []float64{rel, junk}
		y[i] = math.Floor(rel)
	}
	m := NewForest(ForestConfig{NumTrees: 20, Seed: 2})
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	imp, err := ForestFeatureImportance(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range imp {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("importances sum to %g, want 1", sum)
	}
	if imp[0] < imp[1] {
		t.Errorf("relevant feature importance %g below junk %g", imp[0], imp[1])
	}
	if _, err := ForestFeatureImportance(NewForest(ForestConfig{}), 2); err == nil {
		t.Error("expected error for unfitted forest")
	}
}
