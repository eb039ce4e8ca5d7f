package ml

import (
	"math"
	"slices"
	"sync"
)

// Tree is a CART regression tree: axis-aligned splits chosen by maximal
// variance reduction, mean-value leaves.
//
// Training uses a column-major pre-sorted split finder (the exact greedy
// algorithm of XGBoost and scikit-learn's presort path): every feature
// column of the training data is ranked once (rankColumns; once per forest,
// not per tree), each tree orders its sample positions per feature with an
// O(n) counting sort of their ranks, and each node re-derives its
// per-feature order by a stable in-place partition of the parent's index
// arrays, so per-node split finding costs O(d·n) instead of the
// O(d·n log n) a per-node sort pays. The fitted tree is stored as flat
// structure-of-arrays node vectors in preorder (node, left subtree, right
// subtree), which Predict walks without pointer chasing.
type Tree struct {
	// MaxDepth limits tree depth (0 = unbounded, scikit-learn's default).
	MaxDepth int
	// MinLeaf is the minimum samples per leaf.
	MinLeaf int
	// featurePicker restricts the candidate split features (nil = all) —
	// used by the random forest's per-node feature subsampling.
	featurePicker func(d int) []int

	d int

	// Flat SoA node storage in preorder; children always have larger
	// indices than their parent. feature[i] < 0 marks a leaf whose mean
	// target is value[i]; split nodes carry (feature, thresh, left, right).
	feature []int32
	thresh  []float64
	left    []int32
	right   []int32
	value   []float64
}

// NewTree returns a regression tree with the given limits.
func NewTree(maxDepth, minLeaf int) *Tree {
	if minLeaf < 1 {
		minLeaf = 1
	}
	return &Tree{MaxDepth: maxDepth, MinLeaf: minLeaf}
}

// treeWorkspace owns every growth-time buffer so fitting one tree performs
// no per-node allocations: the column-major feature copy, the per-feature
// sorted index arrays with the counting-sort buckets that fill them, the
// row list mirroring the legacy recursion's original-order index slice, and
// the partition scratch. Workspaces are pooled (getWorkspace/putWorkspace)
// and resized monotonically.
type treeWorkspace struct {
	n, d int
	// cols[f][i] is feature f of sample i; colData is the shared backing.
	cols    [][]float64
	colData []float64
	// sorted[f] lists sample indices ordered by (cols[f][·], index); every
	// node owns a contiguous segment of each array.
	sorted     [][]int32
	sortedData []int32
	// boot[i] is the row of the ranked data that sample i was drawn from
	// (the identity for a lone tree); count is the counting sort's buckets.
	boot  []int32
	count []int32
	y     []float64
	// rows lists each node segment's samples in original row order — the
	// exact order the legacy engine accumulated means and SSEs in, so leaf
	// values stay bit-identical.
	rows     []int32
	tmp      []int32
	goesLeft []bool
	allFeats []int
}

var wsPool = sync.Pool{New: func() any { return new(treeWorkspace) }}

func getWorkspace() *treeWorkspace  { return wsPool.Get().(*treeWorkspace) }
func putWorkspace(w *treeWorkspace) { wsPool.Put(w) }

// reset sizes the workspace for an n×d problem, reusing prior capacity.
func (w *treeWorkspace) reset(n, d int) {
	w.n, w.d = n, d
	if cap(w.colData) < n*d {
		w.colData = make([]float64, n*d)
		w.sortedData = make([]int32, n*d)
	}
	w.colData = w.colData[:n*d]
	w.sortedData = w.sortedData[:n*d]
	if cap(w.cols) < d {
		w.cols = make([][]float64, d)
		w.sorted = make([][]int32, d)
	}
	w.cols = w.cols[:d]
	w.sorted = w.sorted[:d]
	for f := 0; f < d; f++ {
		w.cols[f] = w.colData[f*n : (f+1)*n]
		w.sorted[f] = w.sortedData[f*n : (f+1)*n]
	}
	if cap(w.y) < n {
		w.boot = make([]int32, n)
		w.count = make([]int32, n+1)
		w.y = make([]float64, n)
		w.rows = make([]int32, n)
		w.tmp = make([]int32, 0, n)
		w.goesLeft = make([]bool, n)
	}
	w.boot = w.boot[:n]
	w.count = w.count[:n+1]
	w.y = w.y[:n]
	w.rows = w.rows[:n]
	w.goesLeft = w.goesLeft[:n]
	if cap(w.allFeats) < d {
		w.allFeats = make([]int, d)
	}
	w.allFeats = w.allFeats[:d]
	for f := range w.allFeats {
		w.allFeats[f] = f
	}
}

// Fit implements Regressor.
func (t *Tree) Fit(X [][]float64, y []float64) error {
	n, d, err := checkXY(X, y)
	if err != nil {
		return err
	}
	ws := getWorkspace()
	defer putWorkspace(ws)
	ws.reset(n, d)
	for i, row := range X {
		for f, v := range row {
			ws.cols[f][i] = v
		}
		ws.y[i] = y[i]
		ws.boot[i] = int32(i)
	}
	ws.presort(rankColumns(ws.cols))
	t.fit(ws)
	return nil
}

// rankColumns gives every value of each column its dense rank: rows sorted
// by value take ranks 0, 1, ... and equal values share one, so −0 and +0
// do. The values must not be NaN (checkXY rejects it), which makes the
// comparison a total order.
func rankColumns(cols [][]float64) [][]int32 {
	n := len(cols[0])
	data := make([]int32, len(cols)*n)
	ranks := make([][]int32, len(cols))
	order := make([]int32, n)
	for f, col := range cols {
		for i := range order {
			order[i] = int32(i)
		}
		slices.SortFunc(order, func(a, b int32) int {
			if col[a] < col[b] {
				return -1
			}
			if col[a] > col[b] {
				return 1
			}
			return 0
		})
		r := data[f*n : (f+1)*n]
		rank := int32(0)
		for i, row := range order {
			if i > 0 && col[order[i-1]] < col[row] {
				rank++
			}
			r[row] = rank
		}
		ranks[f] = r
	}
	return ranks
}

// presort fills every sorted[f] with the sample positions in (value,
// position) order. ranks holds rankColumns of the data boot indexes, which
// has no more rows than there are samples, so sample i's rank in feature f,
// ranks[f][boot[i]], is below n. A counting sort of those ranks, stable in
// sample position, puts equal values (−0 and +0 included) in position
// order: the order an argsort under the comparator (value, then index)
// gives.
func (w *treeWorkspace) presort(ranks [][]int32) {
	for f, rank := range ranks {
		idx, count := w.sorted[f], w.count
		clear(count)
		for _, j := range w.boot {
			count[rank[j]+1]++
		}
		for r := 1; r < len(count); r++ {
			count[r] += count[r-1]
		}
		for i, j := range w.boot {
			idx[count[rank[j]]] = int32(i)
			count[rank[j]]++
		}
	}
}

// fit grows the tree from a loaded, presorted workspace (cols, y and sorted
// filled).
func (t *Tree) fit(ws *treeWorkspace) {
	t.d = ws.d
	for i := range ws.rows {
		ws.rows[i] = int32(i)
	}
	// MinLeaf >= 1 bounds the tree at 2n-1 nodes; reserving that up front
	// makes every pushLeaf/pushSplit append allocation-free.
	maxNodes := 2*ws.n - 1
	t.feature = make([]int32, 0, maxNodes)
	t.thresh = make([]float64, 0, maxNodes)
	t.left = make([]int32, 0, maxNodes)
	t.right = make([]int32, 0, maxNodes)
	t.value = make([]float64, 0, maxNodes)
	t.grow(ws, 0, ws.n, 0)
}

func (t *Tree) pushLeaf(mean float64) int32 {
	i := int32(len(t.feature))
	t.feature = append(t.feature, -1)
	t.thresh = append(t.thresh, 0)
	t.left = append(t.left, -1)
	t.right = append(t.right, -1)
	t.value = append(t.value, mean)
	return i
}

func (t *Tree) pushSplit(feature int, thresh float64) int32 {
	i := int32(len(t.feature))
	t.feature = append(t.feature, int32(feature))
	t.thresh = append(t.thresh, thresh)
	t.left = append(t.left, -1)
	t.right = append(t.right, -1)
	t.value = append(t.value, 0)
	return i
}

// grow builds the subtree over segment [lo, hi) of the workspace index
// arrays and returns its root node index. The scan preserves the legacy
// engine's selection semantics exactly: splits are only evaluated between
// strictly distinct adjacent sorted values, gains compare with strict >, and
// candidate features are probed in picker order.
func (t *Tree) grow(ws *treeWorkspace, lo, hi, depth int) int32 {
	m := hi - lo
	rows := ws.rows[lo:hi]
	mean := meanRows(ws.y, rows)
	if m < 2*t.MinLeaf || (t.MaxDepth > 0 && depth >= t.MaxDepth) || pureRows(ws.y, rows) {
		return t.pushLeaf(mean)
	}

	feats := ws.allFeats
	if t.featurePicker != nil {
		feats = t.featurePicker(t.d)
	}
	bestFeat, bestThresh, bestGain := -1, 0.0, 0.0
	parentSSE := sseRows(ws.y, rows, mean)

	for _, f := range feats {
		seg := ws.sorted[f][lo:hi]
		keys := ws.cols[f]

		// Prefix scan: evaluate every split position with running sums.
		var sumL, sumSqL float64
		sumR, sumSqR := sumsRows(ws.y, seg)
		for i := 0; i < m-1; i++ {
			v := ws.y[seg[i]]
			sumL += v
			sumSqL += v * v
			sumR -= v
			sumSqR -= v * v
			// Can't split between equal feature values (exact stored-value
			// identity of adjacent sorted entries, not a tolerance check).
			//dsalint:ignore floateq
			if keys[seg[i]] == keys[seg[i+1]] {
				continue
			}
			nl, nr := i+1, m-i-1
			if nl < t.MinLeaf || nr < t.MinLeaf {
				continue
			}
			sseL := sumSqL - sumL*sumL/float64(nl)
			sseR := sumSqR - sumR*sumR/float64(nr)
			gain := parentSSE - sseL - sseR
			if gain > bestGain {
				bestGain = gain
				bestFeat = f
				bestThresh = splitThreshold(keys[seg[i]], keys[seg[i+1]])
			}
		}
	}
	if bestFeat < 0 || bestGain <= 1e-12 {
		return t.pushLeaf(mean)
	}

	// Stable in-place partition of every per-feature segment (and the row
	// list) around the chosen split: left block keeps its relative order,
	// then the right block, so each child segment is already sorted.
	keys := ws.cols[bestFeat]
	nl := 0
	for _, r := range rows {
		gl := keys[r] <= bestThresh
		ws.goesLeft[r] = gl
		if gl {
			nl++
		}
	}
	stablePartition(rows, ws.goesLeft, ws.tmp)
	for f := 0; f < ws.d; f++ {
		stablePartition(ws.sorted[f][lo:hi], ws.goesLeft, ws.tmp)
	}

	node := t.pushSplit(bestFeat, bestThresh)
	t.left[node] = t.grow(ws, lo, lo+nl, depth+1)
	t.right[node] = t.grow(ws, lo+nl, hi, depth+1)
	return node
}

// splitThreshold returns the midpoint of adjacent distinct sorted values
// lo < hi, or lo where rounding, overflow or ∞ − ∞ puts the midpoint outside
// [lo, hi): the partition x <= threshold must send lo left and hi right, or
// a child would repeat its parent's segment and growth would not end.
func splitThreshold(lo, hi float64) float64 {
	if mid := 0.5 * (lo + hi); lo <= mid && mid < hi {
		return mid
	}
	return lo
}

// stablePartition reorders seg so rows flagged goesLeft come first, both
// blocks keeping their relative order. tmp must have capacity >= len(seg);
// the right block is staged there and copied back, so nothing allocates.
func stablePartition(seg []int32, goesLeft []bool, tmp []int32) {
	k := 0
	rest := tmp[:0]
	for _, r := range seg {
		if goesLeft[r] {
			seg[k] = r
			k++
		} else {
			rest = append(rest, r)
		}
	}
	copy(seg[k:], rest)
}

// Predict implements Regressor. A row narrower than the training dimension
// cannot be routed through the tree; Predict returns 0 for it (PredictSweep
// rejects a mis-shaped row with an error). Extra trailing features are
// ignored.
func (t *Tree) Predict(x []float64) float64 {
	if len(t.feature) == 0 || len(x) < t.d {
		return 0
	}
	i := int32(0)
	for {
		f := t.feature[i]
		if f < 0 {
			return t.value[i]
		}
		if x[f] <= t.thresh[i] {
			i = t.left[i]
		} else {
			i = t.right[i]
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

func meanRows(y []float64, rows []int32) float64 {
	var s float64
	for _, i := range rows {
		s += y[i]
	}
	return s / float64(len(rows))
}

func sseRows(y []float64, rows []int32, mean float64) float64 {
	var s float64
	for _, i := range rows {
		d := y[i] - mean
		s += d * d
	}
	return s
}

func sumsRows(y []float64, rows []int32) (sum, sumSq float64) {
	for _, i := range rows {
		sum += y[i]
		sumSq += y[i] * y[i]
	}
	return sum, sumSq
}

func pureRows(y []float64, rows []int32) bool {
	first := y[rows[0]]
	for _, i := range rows[1:] {
		if math.Abs(y[i]-first) > 1e-15 {
			return false
		}
	}
	return true
}
