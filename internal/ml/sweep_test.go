package ml

import (
	"bytes"
	"math"
	"testing"
)

// fuzzBytes hands out the fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// value draws from a small grid, so sweep values repeat and land exactly on
// hand-built thresholds, plus NaN, ±Inf and −0 when special is set.
func (b *fuzzBytes) value(special bool) float64 {
	c := b.next()
	if special {
		switch c {
		case 250:
			return math.NaN()
		case 251:
			return math.Inf(1)
		case 252:
			return math.Inf(-1)
		case 253:
			return math.Copysign(0, -1)
		}
	}
	return float64(int(c%32)-8) / 2
}

// handTree builds a tree node by node from the fuzz bytes: every split
// feature is in [0, d), and every threshold and leaf value comes from the
// grid the sweep values use (NaN, ±Inf and −0 too when special is set).
func handTree(b *fuzzBytes, d int, special bool) *Tree {
	t := NewTree(0, 1)
	t.d = d
	var grow func(depth int) int32
	grow = func(depth int) int32 {
		if depth >= 5 || b.next()%3 == 0 {
			return t.pushLeaf(b.value(special))
		}
		node := t.pushSplit(int(b.next())%d, b.value(special))
		t.left[node] = grow(depth + 1)
		t.right[node] = grow(depth + 1)
		return node
	}
	grow(0)
	return t
}

// FuzzPredictSweep is the differential check of the curve kernel: for
// fitted trees and forests, hand-built trees, and a persisted forest holding
// an empty tree, every PredictSweep value must equal Predict on the
// assembled row under math.Float64bits, whatever the fixed features (NaN and
// ±Inf included) and whatever the sweep (unsorted, duplicated, non-finite,
// longer than the stack scratch). Model widths run from 1 (the swept column
// only) to 4.
func FuzzPredictSweep(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 12, 9, 200, 3, 7, 40, 250, 251, 252, 253, 9, 9, 9, 1, 2, 3})
	f.Add(bytes.Repeat([]byte{3, 17, 250, 8, 253, 41, 9}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		d := 1 + int(b.next()%4)
		sweep := make([]float64, int(b.next()%41))
		for j := range sweep {
			sweep[j] = b.value(true)
		}
		fixed := make([]float64, d-1)
		for i := range fixed {
			fixed[i] = b.value(true)
		}

		n := 2 + int(b.next()%30)
		X := make([][]float64, n)
		y := make([]float64, n)
		for i := range X {
			X[i] = make([]float64, d)
			for c := range X[i] {
				X[i][c] = b.value(false)
			}
			y[i] = b.value(false)
		}
		tree := NewTree(int(b.next()%6), 1+int(b.next()%3))
		forest := NewForest(ForestConfig{
			NumTrees:    1 + int(b.next()%5),
			MaxDepth:    int(b.next() % 6),
			MaxFeatures: int(b.next()) % (d + 1),
			Workers:     1,
			Seed:        uint64(b.next()),
		})
		for _, m := range []Regressor{tree, forest} {
			if err := m.Fit(X, y); err != nil {
				t.Fatal(err)
			}
		}

		// A persisted forest whose second tree has no nodes, as a payload
		// with a null root decodes.
		var buf bytes.Buffer
		mixed := &Forest{trees: []*Tree{handTree(&b, d, false), {d: d}, tree}}
		if err := SaveRegressor(&buf, mixed); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadRegressor(&buf)
		if err != nil {
			t.Fatal(err)
		}

		models := map[string]Regressor{
			"tree": tree, "forest": forest, "hand": handTree(&b, d, true), "loaded": loaded,
		}
		for name, m := range models {
			out := make([]float64, len(sweep))
			if err := PredictSweep(m, fixed, sweep, out); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			row := append(append([]float64(nil), fixed...), 0)
			for j, v := range sweep {
				row[d-1] = v
				if want := m.Predict(row); math.Float64bits(out[j]) != math.Float64bits(want) {
					t.Fatalf("%s (width %d), features %v, sweep %v: value %d is %v (%#x), Predict gives %v (%#x)",
						name, d, fixed, sweep, j, out[j], math.Float64bits(out[j]), want, math.Float64bits(want))
				}
			}
			if err := PredictSweep(m, row, sweep, out); err == nil {
				t.Fatalf("%s: a row one feature too wide was accepted", name)
			}
		}
	})
}
