package ml

import (
	"bytes"
	"math"
	"slices"
	"testing"
)

// referencePresort argsorts every feature column of the loaded sample with
// a comparison sort under (value, then index): the order the counting-sort
// presort must reproduce.
func referencePresort(ws *treeWorkspace) {
	for f := 0; f < ws.d; f++ {
		keys := ws.cols[f]
		idx := ws.sorted[f]
		for i := range idx {
			idx[i] = int32(i)
		}
		// Total order (value, then index): ties cannot reorder across runs,
		// so the result is unique — stable by construction.
		slices.SortFunc(idx, func(a, b int32) int {
			ka, kb := keys[a], keys[b]
			if ka < kb {
				return -1
			}
			if ka > kb {
				return 1
			}
			return int(a - b)
		})
	}
}

// TestTreeSplitThresholdSeparates: where the midpoint of the two values a
// split falls between rounds onto the upper one (−smallest subnormal and 0),
// overflows (±1.7e308 neighbours) or is ∞ − ∞, the split still separates
// them; a midpoint threshold would send both rows to one child, which then
// repeats its parent's split until the stack overflows.
func TestTreeSplitThresholdSeparates(t *testing.T) {
	for _, pair := range [][2]float64{
		{-math.SmallestNonzeroFloat64, 0},
		{1, math.Inf(1)},
		{math.Inf(-1), math.Inf(1)},
		{-math.MaxFloat64, -1.6e308},
		{1.6e308, math.MaxFloat64},
	} {
		tree := NewTree(0, 1)
		if err := tree.Fit([][]float64{{pair[0]}, {pair[1]}}, []float64{1, 2}); err != nil {
			t.Fatal(err)
		}
		if lo, hi := tree.Predict([]float64{pair[0]}), tree.Predict([]float64{pair[1]}); lo != 1 || hi != 2 {
			t.Errorf("split between %v and %v predicts %v and %v, want 1 and 2", pair[0], pair[1], lo, hi)
		}
	}
}

// presortValue draws from an eight-value grid, so columns have long tie
// runs, plus ±0, ±Inf and the extreme subnormals.
func (b *fuzzBytes) presortValue() float64 {
	switch c := b.next(); c {
	case 248:
		return math.Copysign(0, -1)
	case 249:
		return 0
	case 250:
		return math.Inf(1)
	case 251:
		return math.Inf(-1)
	case 252:
		return math.SmallestNonzeroFloat64
	case 253:
		return -math.SmallestNonzeroFloat64
	case 254:
		return math.Float64frombits(0x000fffffffffffff) // largest subnormal
	case 255:
		return -math.Float64frombits(0x000fffffffffffff)
	default:
		return float64(int(c%8)-4) / 2
	}
}

// sameNodes fails the test unless got and want have equal node arrays,
// thresholds and leaf values compared under math.Float64bits.
func sameNodes(t *testing.T, name string, got, want *Tree) {
	t.Helper()
	bits := func(v []float64) []uint64 {
		out := make([]uint64, len(v))
		for i, x := range v {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	if got.d != want.d || !slices.Equal(got.feature, want.feature) ||
		!slices.Equal(got.left, want.left) || !slices.Equal(got.right, want.right) ||
		!slices.Equal(bits(got.thresh), bits(want.thresh)) || !slices.Equal(bits(got.value), bits(want.value)) {
		t.Fatalf("%s: tree differs from the reference-order tree\n got  %v %v %v\n want %v %v %v",
			name, got.feature, got.thresh, got.value, want.feature, want.thresh, want.value)
	}
}

// FuzzPresort is the differential check of the rank-based presort against
// the comparison argsort it replaced. Columns come from a small grid with
// ±0, ±Inf and subnormals; widths run 1–5 and sizes 1–64. For a bootstrap
// sample with duplicate rows, every column's counting-sort order must equal
// the reference argsort of the gathered sample; and a Tree and a Forest
// fitted through Fit must equal, node for node and bit for bit, trees grown
// from the reference order.
func FuzzPresort(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 40, 248, 249, 249, 248, 3, 3, 250, 251, 252, 253, 254, 255, 7, 1, 0, 5, 3, 2, 1, 0})
	f.Add(bytes.Repeat([]byte{4, 63, 248, 1, 249, 9, 17, 252, 3, 253}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		d := 1 + int(b.next()%5)
		n := 1 + int(b.next()%64)
		X := make([][]float64, n)
		y := make([]float64, n)
		for i := range X {
			X[i] = make([]float64, d)
			for c := range X[i] {
				X[i][c] = b.presortValue()
			}
			y[i] = b.value(false)
		}
		cols := make([][]float64, d)
		for c := range cols {
			cols[c] = make([]float64, n)
			for i, row := range X {
				cols[c][i] = row[c]
			}
		}
		ranks := rankColumns(cols)

		ws := new(treeWorkspace)
		ws.reset(n, d)
		for i := range ws.boot {
			ws.boot[i] = int32(int(b.next()) % n)
		}
		for c, col := range cols {
			for i, j := range ws.boot {
				ws.cols[c][i] = col[j]
			}
		}
		ws.presort(ranks)
		got := slices.Clone(ws.sortedData)
		referencePresort(ws)
		for c := 0; c < d; c++ {
			if g, w := got[c*n:(c+1)*n], ws.sorted[c]; !slices.Equal(g, w) {
				t.Fatalf("column %d %v, bootstrap %v: counting sort %v, argsort %v", c, ws.cols[c], ws.boot, g, w)
			}
		}

		tree := NewTree(int(b.next()%6), 1+int(b.next()%3))
		if err := tree.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		ref := NewTree(tree.MaxDepth, tree.MinLeaf)
		ws.reset(n, d)
		for c, col := range cols {
			copy(ws.cols[c], col)
		}
		copy(ws.y, y)
		referencePresort(ws)
		ref.fit(ws)
		sameNodes(t, "tree", tree, ref)

		forest := NewForest(ForestConfig{
			NumTrees:    1 + int(b.next()%4),
			MaxDepth:    int(b.next() % 6),
			MaxFeatures: int(b.next()) % (d + 1),
			Workers:     1,
			Seed:        uint64(b.next()),
		})
		if err := forest.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		for ti, got := range forest.trees {
			ws.reset(n, d)
			ref := forest.bootstrapTree(ti, ws, cols, y)
			referencePresort(ws)
			ref.fit(ws)
			sameNodes(t, "forest tree", got, ref)
		}
	})
}
