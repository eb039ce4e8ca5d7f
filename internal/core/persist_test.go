package core

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"dsenergy/internal/gpusim"
	"dsenergy/internal/ligen"
	"dsenergy/internal/ml"
	"dsenergy/internal/synergy"
)

// campaignLiGenModel trains the LiGen model of a serving campaign's V100
// shard: the five rungs of the scheduler's LiGen size ladder measured twice
// at nine clocks, fitted as a 25-tree forest pair (about 2,900 nodes).
func campaignLiGenModel(tb testing.TB) *Model {
	tb.Helper()
	p, err := synergy.NewPlatform(2023, gpusim.V100Spec())
	if err != nil {
		tb.Fatal(err)
	}
	q := p.Queues()[0]
	var wls []FeaturedWorkload
	for _, in := range []ligen.Input{
		{Ligands: 1024, Atoms: 63, Fragments: 8},
		{Ligands: 2048, Atoms: 31, Fragments: 16},
		{Ligands: 4096, Atoms: 89, Fragments: 8},
		{Ligands: 8192, Atoms: 63, Fragments: 8},
		{Ligands: 16384, Atoms: 63, Fragments: 8},
	} {
		w, err := ligen.NewWorkload(in)
		if err != nil {
			tb.Fatal(err)
		}
		wls = append(wls, FeaturedWorkload{
			Workload: w,
			Features: []float64{float64(in.Ligands), float64(in.Atoms), float64(in.Fragments)},
		})
	}
	// The advisory menu: the sweep subsampled from f_max down to at most
	// 16 clocks, in ascending order.
	sweep := withBaseline(everyNth(q.Spec().FreqsAbove(0.4), 8), q.BaselineFreqMHz())
	stride := (len(sweep) + 15) / 16
	var freqs []int
	for i := len(sweep) - 1; i >= 0; i -= stride {
		freqs = append(freqs, sweep[i])
	}
	slices.Reverse(freqs)
	ds, err := BuildDataset(q, LiGenSchema(), wls, BuildConfig{Freqs: freqs, Reps: 2})
	if err != nil {
		tb.Fatal(err)
	}
	m, err := Train(ds, ml.Spec{Algorithm: "forest", Params: map[string]float64{"n_estimators": 25}}, 2084)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

func savedBytes(tb testing.TB, m *Model) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// treeNodes reads the five node arrays of every tree of a forest, each
// entry as its bits. The arrays are unexported in ml; reflection reads them
// without an accessor that no program would call.
func treeNodes(t *testing.T, r ml.Regressor) [][5][]uint64 {
	t.Helper()
	trees := reflect.ValueOf(r).Elem().FieldByName("trees")
	if !trees.IsValid() {
		t.Fatalf("%T has no trees field", r)
	}
	out := make([][5][]uint64, trees.Len())
	for i := range out {
		tree := trees.Index(i).Elem()
		for k, name := range []string{"feature", "thresh", "left", "right", "value"} {
			arr := tree.FieldByName(name)
			if !arr.IsValid() {
				t.Fatalf("ml.Tree has no %s field", name)
			}
			out[i][k] = make([]uint64, arr.Len())
			for j := range out[i][k] {
				switch v := arr.Index(j); v.Kind() {
				case reflect.Int32:
					out[i][k][j] = uint64(v.Int())
				case reflect.Float64:
					out[i][k][j] = math.Float64bits(v.Float())
				default:
					t.Fatalf("ml.Tree.%s holds %s", name, v.Kind())
				}
			}
		}
	}
	return out
}

// TestModelSaveLoadRoundTrip trains models, saves them with Save and reads
// them back with LoadModel: the metadata and the predictions are kept,
// every tree's feature, thresh, left, right and value arrays equal the
// trained tree's entry for entry, floats by their bits, and saving the
// loaded model gives the same bytes again.
func TestModelSaveLoadRoundTrip(t *testing.T) {
	q := testQueue(t)
	normalized, err := TrainNormalized(cronosDataset(t, q, paperGrids[:3]), forestTestSpec(), 9)
	if err != nil {
		t.Fatal(err)
	}
	freqs := []int{q.BaselineFreqMHz(), q.Spec().FMaxMHz()}
	for _, tc := range []struct {
		name  string
		m     *Model
		input []float64
	}{
		{"ligen campaign", campaignLiGenModel(t), []float64{4096, 63, 8}},
		{"cronos normalized", normalized, []float64{20, 8, 8}},
	} {
		m := tc.m
		saved := savedBytes(t, m)
		got, err := LoadModel(bytes.NewReader(saved))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.Schema.App != m.Schema.App || got.Device != m.Device ||
			got.BaselineFreqMHz != m.BaselineFreqMHz || got.Normalized != m.Normalized {
			t.Errorf("%s: metadata changed: %+v", tc.name, got)
		}
		want, have := m.PredictCurves(tc.input, freqs), got.PredictCurves(tc.input, freqs)
		for i := range want {
			if want[i] != have[i] {
				t.Fatalf("%s: prediction changed after round trip: %+v vs %+v", tc.name, want[i], have[i])
			}
		}
		for _, pair := range []struct {
			which        string
			trained, got ml.Regressor
		}{
			{"time", m.timeModel, got.timeModel},
			{"energy", m.energyModel, got.energyModel},
		} {
			want, have := treeNodes(t, pair.trained), treeNodes(t, pair.got)
			if len(want) != len(have) {
				t.Fatalf("%s %s model: %d trees loaded, %d trained", tc.name, pair.which, len(have), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(want[i], have[i]) {
					t.Errorf("%s %s model: tree %d changed in the round trip", tc.name, pair.which, i)
				}
			}
		}
		if again := savedBytes(t, got); !bytes.Equal(again, saved) {
			t.Errorf("%s: saving the loaded model wrote different bytes", tc.name)
		}
	}
}

// TestLoadModelAllocs bounds what one campaign-sized decode allocates.
// Past a small cost per document, each tree costs the growth of its two
// decoded arrays, the tree and its two node blocks: 903 allocations and
// 7.6 bytes per document byte for this model (Go 1.24). An allocation per
// node adds about 2,900 allocations; a second decode of each forest's raw
// bytes adds a copy of them, and a decoder over each adds 36 allocations
// more.
func TestLoadModelAllocs(t *testing.T) {
	saved := savedBytes(t, campaignLiGenModel(t))
	m, err := LoadModel(bytes.NewReader(saved))
	if err != nil {
		t.Fatal(err)
	}
	trees := len(treeNodes(t, m.timeModel)) + len(treeNodes(t, m.energyModel))
	decode := func() {
		if _, err := LoadModel(bytes.NewReader(saved)); err != nil {
			t.Fatal(err)
		}
	}
	const perTree, perDoc = 18, 20
	if allocs, limit := testing.AllocsPerRun(10, decode), float64(perTree*trees+perDoc); allocs > limit {
		t.Errorf("decoding %d trees makes %.0f allocations, want at most %.0f", trees, allocs, limit)
	}
	const runs, perByte = 10, 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		decode()
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / runs; b > perByte*uint64(len(saved)) {
		t.Errorf("decoding a %d-byte document allocates %d bytes, want at most %d",
			len(saved), b, perByte*len(saved))
	}
}

// BenchmarkLoadModel decodes the LiGen model of a serving campaign's V100
// shard (2 x 25 trees, about 2,900 nodes), the decode behind every model
// upload.
func BenchmarkLoadModel(b *testing.B) {
	saved := savedBytes(b, campaignLiGenModel(b))
	b.ReportAllocs()
	b.SetBytes(int64(len(saved)))
	for b.Loop() {
		if _, err := LoadModel(bytes.NewReader(saved)); err != nil {
			b.Fatal(err)
		}
	}
}
