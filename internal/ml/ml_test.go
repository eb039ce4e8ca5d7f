package ml

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"dsenergy/internal/xrand"
)

// synthLinear builds y = 3 + 2x0 - x1 + noise.
func synthLinear(rng *xrand.Rand, n int, noise float64) ([][]float64, []float64) {
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x0, x1 := 10*rng.Float64(), 10*rng.Float64()
		X[i] = []float64{x0, x1}
		y[i] = 3 + 2*x0 - x1 + noise*rng.Norm()
	}
	return X, y
}

func TestLinearRecoversExactCoefficients(t *testing.T) {
	X, y := synthLinear(xrand.New(1), 200, 0)
	m := NewLinear()
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Intercept-3) > 1e-8 {
		t.Errorf("intercept %g, want 3", m.Intercept)
	}
	if math.Abs(m.Coef[0]-2) > 1e-8 || math.Abs(m.Coef[1]+1) > 1e-8 {
		t.Errorf("coefficients %v, want [2 -1]", m.Coef)
	}
}

func TestLinearHandlesNoisyData(t *testing.T) {
	X, y := synthLinear(xrand.New(2), 500, 0.1)
	m := NewLinear()
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Coef[0]-2) > 0.05 {
		t.Errorf("noisy coefficient %g, want ~2", m.Coef[0])
	}
}

func TestLinearConstantColumn(t *testing.T) {
	// A constant feature column is rank-deficient against the intercept;
	// the solver must not blow up.
	X := [][]float64{{1, 5}, {2, 5}, {3, 5}, {4, 5}}
	y := []float64{2, 4, 6, 8}
	m := NewLinear()
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for i, x := range X {
		if p := m.Predict(x); math.Abs(p-y[i]) > 1e-6 {
			t.Errorf("prediction %d: %g, want %g", i, p, y[i])
		}
	}
}

func TestLinearRejectsBadShapes(t *testing.T) {
	m := NewLinear()
	if err := m.Fit(nil, nil); err == nil {
		t.Error("expected error for empty data")
	}
	if err := m.Fit([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("expected error for row/target mismatch")
	}
	if err := m.Fit([][]float64{{1, 2}, {1}}, []float64{1, 2}); err == nil {
		t.Error("expected error for ragged rows")
	}
	if err := m.Fit([][]float64{{1}}, []float64{1}); err == nil {
		t.Error("expected error for underdetermined system (1 row, 2 unknowns)")
	}
}

// TestFitRejectsNaN pins the typed error for NaN training data: every
// regressor's Fit refuses a NaN feature or target with ErrNaNInput, while
// ±Inf and −0 features still train a tree and a forest.
func TestFitRejectsNaN(t *testing.T) {
	X, y := synthLinear(xrand.New(34), 40, 0.1)
	nanX := cloneMatrix(X)
	nanX[7][1] = math.NaN()
	nanY := append([]float64(nil), y...)
	nanY[11] = math.NaN()
	cases := []struct {
		name string
		X    [][]float64
		y    []float64
	}{{"feature", nanX, y}, {"target", X, nanY}}

	models := []Regressor{NewLinear(), NewLasso(0.01), NewSVR(10, 0.01, 0), NewTree(0, 1), NewForest(ForestConfig{NumTrees: 3, Seed: 1})}
	for _, c := range cases {
		for _, m := range models {
			if err := m.Fit(c.X, c.y); !errors.Is(err, ErrNaNInput) {
				t.Errorf("%T with a NaN %s: Fit error %v, want ErrNaNInput", m, c.name, err)
			}
		}
	}

	special := cloneMatrix(X)
	special[0][0], special[1][0], special[2][1] = math.Inf(1), math.Inf(-1), math.Copysign(0, -1)
	for _, m := range []Regressor{NewTree(0, 1), NewForest(ForestConfig{NumTrees: 3, Seed: 1})} {
		if err := m.Fit(special, y); err != nil {
			t.Errorf("%T with ±Inf and −0 features: %v", m, err)
		}
	}
}

func TestQuickLinearInterpolatesTwoFeaturePlanes(t *testing.T) {
	// Property: for any plane y = a + b·x0 + c·x1 sampled without noise,
	// OLS reproduces the plane at unseen points.
	f := func(a, b, c int8) bool {
		av, bv, cv := float64(a), float64(b), float64(c)
		rng := xrand.New(uint64(int(a)+300) * 7919)
		X := make([][]float64, 40)
		y := make([]float64, 40)
		for i := range X {
			x0, x1 := rng.Float64()*4, rng.Float64()*4
			X[i] = []float64{x0, x1}
			y[i] = av + bv*x0 + cv*x1
		}
		m := NewLinear()
		if err := m.Fit(X, y); err != nil {
			return false
		}
		probe := []float64{1.234, 2.345}
		want := av + bv*probe[0] + cv*probe[1]
		return math.Abs(m.Predict(probe)-want) < 1e-6*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLassoShrinksIrrelevantFeature(t *testing.T) {
	// y depends only on x0; the noise feature's coefficient must be driven
	// to exactly zero by the L1 penalty.
	rng := xrand.New(3)
	X := make([][]float64, 300)
	y := make([]float64, 300)
	for i := range X {
		x0, junk := rng.Float64()*10, rng.Float64()*10
		X[i] = []float64{x0, junk}
		y[i] = 5 * x0
	}
	m := NewLasso(0.5)
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if m.Coef[1] != 0 {
		t.Errorf("irrelevant coefficient %g, want exactly 0", m.Coef[1])
	}
	if math.Abs(m.Coef[0]-5) > 0.5 {
		t.Errorf("relevant coefficient %g, want ~5", m.Coef[0])
	}
}

func TestLassoZeroAlphaMatchesOLS(t *testing.T) {
	X, y := synthLinear(xrand.New(4), 300, 0)
	ols := NewLinear()
	if err := ols.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	lasso := NewLasso(0)
	if err := lasso.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for j := range ols.Coef {
		if math.Abs(ols.Coef[j]-lasso.Coef[j]) > 1e-4 {
			t.Errorf("coef %d: ols %g vs lasso(0) %g", j, ols.Coef[j], lasso.Coef[j])
		}
	}
}

func TestLassoRejectsNegativeAlpha(t *testing.T) {
	for _, alpha := range []float64{-1, math.NaN()} {
		m := NewLasso(alpha)
		if err := m.Fit([][]float64{{1}, {2}}, []float64{1, 2}); err == nil {
			t.Errorf("alpha=%g: expected an error, fitted coef %v", alpha, m.Coef)
		}
	}
}

func TestSoftThreshold(t *testing.T) {
	cases := []struct{ z, t, want float64 }{
		{5, 2, 3}, {-5, 2, -3}, {1, 2, 0}, {-1, 2, 0}, {2, 2, 0},
	}
	for _, c := range cases {
		if got := softThreshold(c.z, c.t); got != c.want {
			t.Errorf("softThreshold(%g,%g) = %g, want %g", c.z, c.t, got, c.want)
		}
	}
}

func TestSVRFitsSmoothFunction(t *testing.T) {
	rng := xrand.New(5)
	X := make([][]float64, 150)
	y := make([]float64, 150)
	for i := range X {
		x := 4 * rng.Float64()
		X[i] = []float64{x}
		y[i] = math.Sin(x)
	}
	m := NewSVR(10, 0.01, 0)
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	var worst float64
	for x := 0.2; x < 3.8; x += 0.2 {
		err := math.Abs(m.Predict([]float64{x}) - math.Sin(x))
		if err > worst {
			worst = err
		}
	}
	if worst > 0.1 {
		t.Errorf("SVR worst-case error %g on sin(x), want < 0.1", worst)
	}
	if sv := m.NumSupportVectors(); sv == 0 || sv > 150 {
		t.Errorf("implausible support-vector count %d", sv)
	}
}

func TestSVRRespectsBoxConstraint(t *testing.T) {
	rng := xrand.New(6)
	X := make([][]float64, 60)
	y := make([]float64, 60)
	for i := range X {
		X[i] = []float64{rng.Float64()}
		y[i] = 100 * rng.Float64() // wild targets force clipping
	}
	m := NewSVR(0.5, 0.01, 1)
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for i, b := range m.beta {
		if math.Abs(b) > 0.5+1e-12 {
			t.Fatalf("beta[%d] = %g violates |beta| <= C = 0.5", i, b)
		}
	}
}

// TestSVRParameterValidation rejects every hyper-parameter the solver cannot
// use. Unchecked, a NaN C fits as an unbounded box, a negative gamma blows the
// kernel up, and a NaN gamma or epsilon predicts NaN or 0.
func TestSVRParameterValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name      string
		c, eps, g float64
	}{
		{"C=0", 0, 0.1, 1},
		{"C=NaN", nan, 0.1, 1},
		{"negative epsilon", 1, -0.1, 1},
		{"epsilon=NaN", 1, nan, 1},
		{"epsilon=+Inf", 1, inf, 1},
		{"negative gamma", 1, 0.1, -1},
		{"gamma=NaN", 1, 0.1, nan},
		{"gamma=+Inf", 1, 0.1, inf},
	}
	for _, tc := range cases {
		if err := NewSVR(tc.c, tc.eps, tc.g).Fit([][]float64{{1}, {2}}, []float64{1, 2}); err == nil {
			t.Errorf("%s: expected an error", tc.name)
		}
	}
}

func TestTreeFitsPiecewiseConstant(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}, {10}, {11}, {12}}
	y := []float64{5, 5, 5, -3, -3, -3}
	m := NewTree(0, 1)
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if p := m.Predict([]float64{2}); p != 5 {
		t.Errorf("left region prediction %g, want 5", p)
	}
	if p := m.Predict([]float64{11}); p != -3 {
		t.Errorf("right region prediction %g, want -3", p)
	}
	if m.Leaves() != 2 {
		t.Errorf("tree grew %d leaves for a 2-region target, want 2", m.Leaves())
	}
}

func TestTreeRespectsMaxDepth(t *testing.T) {
	rng := xrand.New(7)
	X := make([][]float64, 200)
	y := make([]float64, 200)
	for i := range X {
		X[i] = []float64{rng.Float64()}
		y[i] = rng.Float64()
	}
	m := NewTree(3, 1)
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if d := m.Depth(); d > 3 {
		t.Errorf("tree depth %d exceeds MaxDepth 3", d)
	}
}

func TestTreeRespectsMinLeaf(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{1, 2, 3, 4}
	m := NewTree(0, 2)
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if m.Leaves() > 2 {
		t.Errorf("MinLeaf=2 on 4 samples allows at most 2 leaves, got %d", m.Leaves())
	}
}

func TestTreePredictionWithinTargetRange(t *testing.T) {
	// Mean-value leaves can never extrapolate outside [min(y), max(y)].
	f := func(seed uint16) bool {
		rng := xrand.New(uint64(seed) + 1)
		n := 30 + rng.Intn(50)
		X := make([][]float64, n)
		y := make([]float64, n)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range X {
			X[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
			y[i] = rng.Norm() * 5
			lo = math.Min(lo, y[i])
			hi = math.Max(hi, y[i])
		}
		m := NewTree(0, 1)
		if err := m.Fit(X, y); err != nil {
			return false
		}
		for probe := 0; probe < 20; probe++ {
			p := m.Predict([]float64{rng.Float64() * 20, rng.Float64() * 20})
			if p < lo-1e-9 || p > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestForestBeatsMeanBaseline(t *testing.T) {
	rng := xrand.New(8)
	n := 400
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		a, b := rng.Float64()*4, rng.Float64()*4
		X[i] = []float64{a, b}
		y[i] = math.Sin(a)*math.Cos(b) + 0.05*rng.Norm()
	}
	m := NewForest(ForestConfig{NumTrees: 50, Seed: 1})
	if err := m.Fit(X[:300], y[:300]); err != nil {
		t.Fatal(err)
	}
	var meanY float64
	for _, v := range y[:300] {
		meanY += v
	}
	meanY /= 300

	var errModel, errBase float64
	for i := 300; i < n; i++ {
		errModel += math.Abs(m.Predict(X[i]) - y[i])
		errBase += math.Abs(meanY - y[i])
	}
	if errModel >= errBase*0.5 {
		t.Errorf("forest MAE %g not well below mean-baseline MAE %g", errModel/100, errBase/100)
	}
}

func TestForestDeterministicAcrossWorkers(t *testing.T) {
	X, y := synthLinear(xrand.New(9), 120, 0.2)
	fit := func(workers int) *Forest {
		m := NewForest(ForestConfig{NumTrees: 16, Seed: 42, Workers: workers})
		if err := m.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := fit(1), fit(8)
	probe := []float64{3.3, 4.4}
	if pa, pb := a.Predict(probe), b.Predict(probe); pa != pb {
		t.Errorf("forest prediction differs across worker counts: %g vs %g", pa, pb)
	}
}

func TestForestMaxFeaturesSubsampling(t *testing.T) {
	X, y := synthLinear(xrand.New(10), 100, 0.1)
	m := NewForest(ForestConfig{NumTrees: 10, MaxFeatures: 1, Seed: 3})
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if m.NumTrees() != 10 {
		t.Errorf("trained %d trees, want 10", m.NumTrees())
	}
}

func TestMetrics(t *testing.T) {
	yt := []float64{1, 2, 4}
	yp := []float64{1, 1, 5}
	wantMAPE := (0 + 0.5 + 0.25) / 3
	if got := MAPE(yt, yp); !almostEqf(got, wantMAPE, 1e-12) {
		t.Errorf("MAPE %g want %g", got, wantMAPE)
	}
}

func TestMAPESkipsZeroTargets(t *testing.T) {
	if got := MAPE([]float64{0, 2}, []float64{5, 3}); !almostEqf(got, 0.5, 1e-12) {
		t.Errorf("MAPE with zero target %g, want 0.5", got)
	}
}

func TestMAPENearZeroGuard(t *testing.T) {
	cases := []struct {
		name         string
		yTrue, yPred []float64
		want         float64
	}{
		// A denormal-scale target must not blow the mean up to ~1e300.
		{"near-zero skipped", []float64{1e-300, 2}, []float64{5, 3}, 0.5},
		// Targets at the threshold boundary are skipped; above it they count.
		{"relative threshold", []float64{1e-13, 1}, []float64{7, 1.1}, 0.1},
		{"all zero", []float64{0, 0}, []float64{1, 2}, 0},
		// Negative targets are judged by magnitude, not sign.
		{"negative target kept", []float64{-2, 2}, []float64{-3, 3}, 0.5},
	}
	for _, c := range cases {
		got := MAPE(c.yTrue, c.yPred)
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Errorf("%s: MAPE = %g, must be finite", c.name, got)
			continue
		}
		if !almostEqf(got, c.want, 1e-9) {
			t.Errorf("%s: MAPE = %g, want %g", c.name, got, c.want)
		}
	}
}

func TestKFoldMAPE(t *testing.T) {
	X, y := synthLinear(xrand.New(11), 200, 0.05)
	m, err := kfoldMAPE(Spec{Algorithm: "linear"}, X, y, 5, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m < 0 || m > 0.2 {
		t.Errorf("k-fold MAPE %g out of plausible range for a near-linear target", m)
	}
	if _, err := kfoldMAPE(Spec{Algorithm: "linear"}, X, y, 1, 1, nil); err == nil {
		t.Error("expected error for k=1")
	}
}

func TestGridSearchFindsBetterDepth(t *testing.T) {
	rng := xrand.New(12)
	X := make([][]float64, 150)
	y := make([]float64, 150)
	for i := range X {
		x := rng.Float64() * 10
		X[i] = []float64{x}
		y[i] = math.Floor(x) // step function: deeper trees win
	}
	pts, err := GridSearchParallel(Spec{Algorithm: "forest", Params: map[string]float64{"n_estimators": 10}},
		map[string][]float64{"max_depth": {1, 8}}, X, y, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("want 2 grid points, got %d", len(pts))
	}
	if pts[0].Params["max_depth"] != 8 {
		t.Errorf("grid search picked depth %g, want 8 for a step target", pts[0].Params["max_depth"])
	}
}

func TestSpecNewUnknownAlgorithm(t *testing.T) {
	if _, err := (Spec{Algorithm: "nope"}).New(1); err == nil {
		t.Error("expected error for unknown algorithm")
	}
}

// TestDefaultSpecsConstructible builds the four algorithm families the
// paper compares in §5.2.1 from their specs.
func TestDefaultSpecsConstructible(t *testing.T) {
	specs := []Spec{
		{Algorithm: "linear"},
		{Algorithm: "lasso", Params: map[string]float64{"alpha": 0.01}},
		{Algorithm: "svr", Params: map[string]float64{"C": 10, "epsilon": 0.01}},
		{Algorithm: "forest"},
	}
	for _, s := range specs {
		if _, err := s.New(1); err != nil {
			t.Errorf("spec %q: %v", s.Algorithm, err)
		}
	}
}

func almostEqf(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// TestPersistRoundTripAllKinds round-trips fitted forests, the only kind a
// program persists: every loaded tree's node arrays equal the trained
// tree's, floats compared by their bits. Every other regressor is refused
// on save, and the kinds they were once persisted under are rejected on
// load.
func TestPersistRoundTripAllKinds(t *testing.T) {
	X, y := synthLinear(xrand.New(21), 150, 0.1)
	probe := []float64{4.2, 6.6}

	for _, cfg := range []ForestConfig{
		{NumTrees: 12, Seed: 3},
		{NumTrees: 6, MaxDepth: 3, MinLeaf: 4, Seed: 5},
		{NumTrees: 6, MaxFeatures: 1, Seed: 9},
	} {
		forest := NewForest(cfg)
		if err := forest.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := SaveRegressor(&buf, forest); err != nil {
			t.Fatalf("save: %v", err)
		}
		got, err := LoadRegressor(&buf)
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		loaded := got.(*Forest)
		if len(loaded.trees) != len(forest.trees) {
			t.Fatalf("%+v: %d trees loaded, %d trained", cfg, len(loaded.trees), len(forest.trees))
		}
		for i, want := range forest.trees {
			have := loaded.trees[i]
			if have.d != want.d || have.MaxDepth != want.MaxDepth || have.MinLeaf != want.MinLeaf ||
				!slices.Equal(have.feature, want.feature) || !slices.Equal(have.left, want.left) ||
				!slices.Equal(have.right, want.right) ||
				!slices.Equal(bitsSlice(have.thresh), bitsSlice(want.thresh)) ||
				!slices.Equal(bitsSlice(have.value), bitsSlice(want.value)) {
				t.Errorf("%+v: tree %d changed in the round trip", cfg, i)
			}
		}
		if want, have := forest.Predict(probe), got.Predict(probe); want != have {
			t.Errorf("prediction changed after round trip: %g vs %g", want, have)
		}
	}

	var buf bytes.Buffer
	for _, m := range []Regressor{NewLinear(), NewLasso(0.01), NewSVR(10, 0.05, 0), NewTree(6, 2)} {
		if err := m.Fit(X[:80], y[:80]); err != nil {
			t.Fatal(err)
		}
		if err := SaveRegressor(&buf, m); err == nil {
			t.Errorf("%T: saved, want a refusal", m)
		}
	}
	for _, payload := range []string{
		`{"kind":"linear"}`,
		`{"kind":"lasso"}`,
		`{"kind":"svr"}`,
		`{"kind":"tree","trees":[{"d":1,"feature":[-1],"value":[3]}]}`,
	} {
		if _, err := LoadRegressor(strings.NewReader(payload)); !errors.Is(err, ErrCorruptModel) {
			t.Errorf("retired kind loaded with error %v, want ErrCorruptModel\n%s", err, payload)
		}
	}
}

func TestLoadRegressorRejectsGarbage(t *testing.T) {
	if _, err := LoadRegressor(strings.NewReader("not json")); err == nil {
		t.Error("expected error for non-JSON input")
	}
	if _, err := LoadRegressor(strings.NewReader(`{"kind":"alien","trees":[]}`)); err == nil {
		t.Error("expected error for unknown kind")
	}
	if _, err := LoadRegressor(strings.NewReader(
		`{"kind":"forest","trees":[{"d":1,"feature":[0],"value":[0]}]}`)); err == nil {
		t.Error("expected error for split node without children")
	}
}

func TestSaveRegressorRejectsUnknownType(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveRegressor(&buf, fakeRegressor{}); err == nil {
		t.Error("expected error for unsupported regressor type")
	}
}

type fakeRegressor struct{}

func (fakeRegressor) Fit([][]float64, []float64) error { return nil }
func (fakeRegressor) Predict([]float64) float64        { return 0 }

func TestGridSearchParallelMatchesSerial(t *testing.T) {
	X, y := synthLinear(xrand.New(22), 80, 0.05)
	base := Spec{Algorithm: "forest", Params: map[string]float64{"n_estimators": 8}}
	grid := map[string][]float64{
		"max_depth":    {2, 6},
		"max_features": {0, 2},
	}
	serial, err := GridSearchParallel(base, grid, X, y, 4, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := GridSearchParallel(base, grid, X, y, 4, 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Errorf("parallel grid search diverged:\nserial   %+v\nparallel %+v", serial, par)
	}
}

func TestKFoldParallelPropagatesFoldError(t *testing.T) {
	X, y := synthLinear(xrand.New(23), 40, 0.05)
	if _, err := kfoldMAPE(Spec{Algorithm: "no-such-algo"}, X, y, 4, 1, nil); err == nil {
		t.Fatal("expected constructor error to propagate from the folds")
	}
	if _, err := GridSearchParallel(Spec{Algorithm: "no-such-algo"}, map[string][]float64{"max_depth": {2, 4}}, X, y, 4, 1, 4); err == nil {
		t.Fatal("expected constructor error to propagate from parallel grid points")
	}
}

// TestTreePredictRowWidths pins the documented width semantics of the flat
// tree: rows narrower than the training dimension cannot be routed and
// return 0 (the legacy engine silently sent them right at every missing
// feature — an accident of the `feature < len(x)` guard); extra trailing
// features are ignored; PredictSweep is the checked counterpart that
// rejects any width mismatch instead.
func TestTreePredictRowWidths(t *testing.T) {
	X, y := synthLinear(xrand.New(31), 80, 0.05)
	tree := NewTree(4, 1)
	if err := tree.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if got := tree.Predict([]float64{X[0][0]}); got != 0 {
		t.Errorf("short row predicted %g, want the documented 0", got)
	}
	full := tree.Predict(X[0])
	if got := tree.Predict(append(append([]float64(nil), X[0]...), 99)); got != full {
		t.Errorf("extra trailing feature changed prediction: %g != %g", got, full)
	}
	last := len(X[0]) - 1
	sweep := []float64{X[0][last]}
	out := make([]float64, 1)
	if err := PredictSweep(tree, nil, sweep, out); err == nil {
		t.Error("PredictSweep accepted a short row")
	}
	if err := PredictSweep(tree, X[0], sweep, out); err == nil {
		t.Error("PredictSweep accepted an over-wide row")
	}
	if err := PredictSweep(tree, X[0][:last], sweep, out); err != nil {
		t.Fatal(err)
	}
	if out[0] != full {
		t.Errorf("PredictSweep %g diverged from Predict %g", out[0], full)
	}
	if err := PredictSweep(NewTree(0, 1), X[0][:last], sweep, out); err == nil {
		t.Error("PredictSweep on an unfitted tree did not error")
	}
}

// TestGridSearchSharedPermMatchesKFold pins the shuffle hoist:
// GridSearchParallel computes one Perm(n) and shares it across grid points, which must leave
// every point's MAPE exactly equal to an independent kfoldMAPE run of the
// same spec (which derives the identical permutation from (n, seed)).
func TestGridSearchSharedPermMatchesKFold(t *testing.T) {
	X, y := synthLinear(xrand.New(33), 90, 0.05)
	base := Spec{Algorithm: "forest", Params: map[string]float64{"n_estimators": 6}}
	grid := map[string][]float64{"max_depth": {2, 5}, "min_samples_leaf": {1, 3}}
	pts, err := GridSearchParallel(base, grid, X, y, 3, 17, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		spec := Spec{Algorithm: base.Algorithm, Params: map[string]float64{}}
		for k, v := range base.Params {
			spec.Params[k] = v
		}
		for k, v := range p.Params {
			spec.Params[k] = v
		}
		direct, err := kfoldMAPE(spec, X, y, 3, 17, nil)
		if err != nil {
			t.Fatal(err)
		}
		if p.MAPE != direct {
			t.Errorf("grid point %v MAPE %v != direct k-fold %v", p.Params, p.MAPE, direct)
		}
	}
}

// NumTrees returns the fitted ensemble size.
func (f *Forest) NumTrees() int { return len(f.trees) }

// NumSupportVectors returns the count of nonzero dual coefficients.
func (s *SVR) NumSupportVectors() int {
	n := 0
	for _, b := range s.beta {
		if b != 0 {
			n++
		}
	}
	return n
}

// cloneMatrix deep-copies X.
func cloneMatrix(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, r := range X {
		out[i] = append([]float64(nil), r...)
	}
	return out
}
