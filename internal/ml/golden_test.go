package ml

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"dsenergy/internal/xrand"
)

// Golden determinism lock for the CART/forest training engine.
//
// The goldens in testdata/golden_engine.json snapshot the exact float64 bits
// of fitted-model predictions, grid-search rankings, k-fold estimates and
// the SHA-256 of the persisted model bytes, for
// several datasets chosen to stress the split finder:
//
//   - continuous features (no ties outside bootstrap duplication),
//   - discrete feature columns with heavy cross-row ties (the frequency
//     column of the real datasets),
//   - exact duplicate rows.
//
// Provenance. The "continuous" entries — and every prediction and CV
// estimate on the tie datasets except one probe — were generated by the
// legacy engine (per-node sort.Slice, pointer nodes) and reproduced
// byte-for-byte by the pre-sorted engine, which proves the rewrite preserves
// the legacy selection semantics wherever those semantics were well defined.
// Where they were not, the file pins the current engine instead: within runs
// of equal feature values the legacy split scan accumulated targets in
// sort.Slice's unstable permutation — explicitly unspecified by Go and free
// to change between releases — and when two candidate splits tie in exact
// arithmetic, that accidental order decided the ulp-level comparison between
// them. The pre-sorted engine canonicalizes tie order to (value, original
// row index), so tie-heavy fits are deterministic by construction; the
// "ties"/"dupes" entries affected by tie runs with distinct targets (a few
// persisted-tree hashes and CV MAPEs) were regenerated from
// the canonical order.
//
// Any future engine change must reproduce every byte, for Workers 1 and
// Workers 0 (GOMAXPROCS) alike. Regenerate only when a semantic change is
// intended: MLGOLDEN_UPDATE=1 go test ./internal/ml -run TestGoldenEngine

// goldenDataset deterministically builds one named training set plus probe
// rows (a mix of training rows and unseen points).
func goldenDataset(name string) (X [][]float64, y []float64, probes [][]float64) {
	switch name {
	case "continuous":
		rng := xrand.New(101)
		n := 240
		X = make([][]float64, n)
		y = make([]float64, n)
		for i := range X {
			a, b, c, d, e := rng.Float64()*8, rng.Float64()*4, rng.Float64()*2, rng.Float64(), rng.Float64()*10
			X[i] = []float64{a, b, c, d, e}
			y[i] = math.Sin(a) + 0.5*b*c - 0.2*d + 0.1*e + 0.05*rng.Norm()
		}
	case "ties":
		// Two discrete columns (like the MHz sweep column) shared across many
		// rows with distinct targets: the split scan walks long runs of equal
		// feature values here.
		rng := xrand.New(202)
		levels := []float64{900, 1100, 1300, 1500}
		modes := []float64{0, 1, 2}
		n := 300
		X = make([][]float64, n)
		y = make([]float64, n)
		for i := range X {
			f := levels[rng.Intn(len(levels))]
			m := modes[rng.Intn(len(modes))]
			a, b := rng.Float64()*6, rng.Float64()*3
			X[i] = []float64{a, f, m, b}
			y[i] = a*0.7 + f/1500 + m*0.3 - 0.2*b + 0.1*rng.Norm()
		}
	case "dupes":
		// Exact duplicate rows with duplicate targets plus a duplicated row
		// pair with *different* targets (measurement repeats).
		rng := xrand.New(303)
		base := make([][]float64, 40)
		by := make([]float64, 40)
		for i := range base {
			a, b := rng.Float64()*5, rng.Float64()*5
			base[i] = []float64{a, b}
			by[i] = a - b + 0.2*rng.Norm()
		}
		for i := 0; i < 120; i++ {
			j := rng.Intn(len(base))
			X = append(X, append([]float64(nil), base[j]...))
			if i%7 == 0 {
				y = append(y, by[j]+0.05*rng.Norm()) // repeat with new noise
			} else {
				y = append(y, by[j])
			}
		}
	default:
		panic("unknown golden dataset " + name)
	}
	prng := xrand.New(7777)
	for i := 0; i < 16; i++ {
		row := make([]float64, len(X[0]))
		for j := range row {
			row[j] = X[prng.Intn(len(X))][j] * (0.5 + prng.Float64())
		}
		probes = append(probes, row)
	}
	for i := 0; i < 4; i++ {
		probes = append(probes, X[prng.Intn(len(X))])
	}
	return X, y, probes
}

// bitsOf encodes exact float64 identity as hex so the golden file survives
// formatting round trips.
// predictRows returns r's prediction for every row of X.
func predictRows(r Regressor, X [][]float64) []float64 {
	out := make([]float64, len(X))
	for i, x := range X {
		out[i] = r.Predict(x)
	}
	return out
}

func bitsOf(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

func bitsSlice(vs []float64) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = bitsOf(v)
	}
	return out
}

func persistDigest(t *testing.T, r Regressor) string {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveRegressor(&buf, r); err != nil {
		t.Fatalf("persisting model: %v", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return fmt.Sprintf("%s:%d", hex.EncodeToString(sum[:]), buf.Len())
}

type goldenForest struct {
	Preds   []string `json:"preds"`
	Persist string   `json:"persist"`
}

type goldenTree struct {
	Preds   []string `json:"preds"`
	Depth   int      `json:"depth"`
	Leaves  int      `json:"leaves"`
	Persist string   `json:"persist"`
}

type goldenGridPoint struct {
	Params map[string]float64 `json:"params"`
	MAPE   string             `json:"mape"`
}

type goldenFile struct {
	Forests map[string]goldenForest      `json:"forests"`
	Trees   map[string]goldenTree        `json:"trees"`
	Grids   map[string][]goldenGridPoint `json:"grids"`
	KFold   map[string]string            `json:"kfold"`
}

var goldenForestConfigs = []struct {
	name string
	cfg  ForestConfig
}{
	{"small", ForestConfig{NumTrees: 12, Seed: 7}},
	{"subsample", ForestConfig{NumTrees: 10, MaxFeatures: 2, Seed: 11}},
	{"bounded-oob", ForestConfig{NumTrees: 8, MaxDepth: 6, MinLeaf: 3, Seed: 13}},
}

var goldenTreeConfigs = []struct {
	name              string
	maxDepth, minLeaf int
}{
	{"unbounded", 0, 1},
	{"bounded", 5, 2},
}

var goldenDatasets = []string{"continuous", "ties", "dupes"}

func buildGolden(t *testing.T) goldenFile {
	t.Helper()
	g := goldenFile{
		Forests: map[string]goldenForest{},
		Trees:   map[string]goldenTree{},
		Grids:   map[string][]goldenGridPoint{},
		KFold:   map[string]string{},
	}
	for _, ds := range goldenDatasets {
		X, y, probes := goldenDataset(ds)

		for _, fc := range goldenForestConfigs {
			var ref goldenForest
			for _, workers := range []int{1, 0} {
				cfg := fc.cfg
				cfg.Workers = workers
				f := NewForest(cfg)
				if err := f.Fit(X, y); err != nil {
					t.Fatalf("%s/%s workers=%d: %v", ds, fc.name, workers, err)
				}
				got := goldenForest{
					Preds:   bitsSlice(predictRows(f, probes)),
					Persist: persistDigest(t, f),
				}
				if workers == 1 {
					ref = got
				} else if fmt.Sprint(ref) != fmt.Sprint(got) {
					t.Errorf("%s/%s: Workers=0 result diverges from Workers=1", ds, fc.name)
				}
			}
			g.Forests[ds+"/"+fc.name] = ref
		}

		for _, tc := range goldenTreeConfigs {
			tr := NewTree(tc.maxDepth, tc.minLeaf)
			if err := tr.Fit(X, y); err != nil {
				t.Fatalf("%s/%s: %v", ds, tc.name, err)
			}
			g.Trees[ds+"/"+tc.name] = goldenTree{
				Preds:   bitsSlice(predictRows(tr, probes)),
				Depth:   tr.Depth(),
				Leaves:  tr.Leaves(),
				Persist: persistDigest(t, tr),
			}
		}

		spec := Spec{Algorithm: "forest", Params: map[string]float64{"n_estimators": 6}}
		pts, err := gridSearch(spec, map[string][]float64{
			"max_depth":        {2, 5},
			"min_samples_leaf": {1, 3},
		}, X, y, 3, 17, 1)
		if err != nil {
			t.Fatal(err)
		}
		var gp []goldenGridPoint
		for _, p := range pts {
			gp = append(gp, goldenGridPoint{Params: p.Params, MAPE: bitsOf(p.MAPE)})
		}
		g.Grids[ds] = gp

		kf, err := kfoldMAPE(spec, X, y, 4, 23, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		g.KFold[ds] = bitsOf(kf)
	}
	return g
}

// TestGoldenEngine asserts the current engine reproduces the pre-refactor
// snapshot byte for byte (predictions, persisted model bytes, grid rankings,
// k-fold estimates), for Workers 1 and Workers 0.
func TestGoldenEngine(t *testing.T) {
	got := buildGolden(t)
	raw, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw, '\n')

	golden := filepath.Join("testdata", "golden_engine.json")
	if os.Getenv("MLGOLDEN_UPDATE") != "" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, len(raw))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (generate from the reference engine with MLGOLDEN_UPDATE=1): %v", err)
	}
	if !bytes.Equal(raw, want) {
		var wantFile goldenFile
		if err := json.Unmarshal(want, &wantFile); err != nil {
			t.Fatalf("corrupt golden: %v", err)
		}
		for k, w := range wantFile.Forests {
			if fmt.Sprint(got.Forests[k]) != fmt.Sprint(w) {
				t.Errorf("forest %s diverged from golden\n got %+v\nwant %+v", k, got.Forests[k], w)
			}
		}
		for k, w := range wantFile.Trees {
			if fmt.Sprint(got.Trees[k]) != fmt.Sprint(w) {
				t.Errorf("tree %s diverged from golden\n got %+v\nwant %+v", k, got.Trees[k], w)
			}
		}
		for k, w := range wantFile.Grids {
			if fmt.Sprint(got.Grids[k]) != fmt.Sprint(w) {
				t.Errorf("grid %s diverged from golden\n got %+v\nwant %+v", k, got.Grids[k], w)
			}
		}
		for k, w := range wantFile.KFold {
			if got.KFold[k] != w {
				t.Errorf("kfold %s diverged from golden: got %s want %s", k, got.KFold[k], w)
			}
		}
		if !t.Failed() {
			t.Error("golden bytes differ (encoding-level change); inspect testdata/golden_engine.json")
		}
	}
}

// Depth returns the fitted tree's depth (0 for a stump).
func (t *Tree) Depth() int {
	if len(t.feature) == 0 {
		return 0
	}
	return t.depthAt(0)
}

func (t *Tree) depthAt(i int32) int {
	if t.feature[i] < 0 {
		return 0
	}
	l, r := t.depthAt(t.left[i]), t.depthAt(t.right[i])
	if l > r {
		return l + 1
	}
	return r + 1
}

// Leaves returns the fitted leaf count.
func (t *Tree) Leaves() int {
	var n int
	for _, f := range t.feature {
		if f < 0 {
			n++
		}
	}
	return n
}

// subtreeLeafCounts returns, for every node, the number of leaves under it.
// Children follow their parent in the preorder layout, so one reverse sweep
// suffices.
func (t *Tree) subtreeLeafCounts() []int32 {
	counts := make([]int32, len(t.feature))
	for i := len(t.feature) - 1; i >= 0; i-- {
		if t.feature[i] < 0 {
			counts[i] = 1
		} else {
			counts[i] = counts[t.left[i]] + counts[t.right[i]]
		}
	}
	return counts
}
