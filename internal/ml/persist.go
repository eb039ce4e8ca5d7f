package ml

import (
	"errors"
	"fmt"
	"math"
)

// Model persistence: a trained forest serializes to a flat JSON document,
// so a model trained from an expensive measurement campaign can be stored
// next to its dataset and reloaded without refitting. Each tree is two
// arrays over its nodes in preorder (node, left subtree, right subtree), the
// order fit grows it in: feature holds a node's split feature, or -1 for a
// leaf, and value holds its split threshold, or a leaf's mean target. The
// children follow from the order, so they are not stored.

// ErrCorruptModel is the typed error DecodeForest wraps every rejection in:
// an unknown model kind, and a document that decodes but cannot have been
// written by EncodeForest over a fitted forest (out-of-range split
// features, malformed preorder arrays, disagreeing tree dimensions, an empty
// forest). Callers that hot-reload persisted models match it with errors.Is
// to reject the new version and keep serving the old one, instead of loading
// a model that panics or predicts garbage at first use.
var ErrCorruptModel = errors.New("ml: corrupt persisted model")

// leafMarker is the feature entry of a persisted leaf.
const leafMarker = -1

// ForestDoc is the persisted form of a forest. A model document embeds it
// as a typed field, so one JSON decode reads the whole model; Kind is
// always "forest".
type ForestDoc struct {
	Kind  string    `json:"kind"`
	Trees []treeDoc `json:"trees"`
}

// treeDoc is one persisted tree: its limits, its training width and its
// preorder feature and value arrays.
type treeDoc struct {
	MaxDepth int       `json:"max_depth"`
	MinLeaf  int       `json:"min_leaf"`
	D        int       `json:"d"`
	Feature  []int     `json:"feature"`
	Value    []float64 `json:"value"`
}

// EncodeForest returns the persisted form of a fitted forest. Forests are
// the only regressors a program persists, so any other type is refused.
func EncodeForest(r Regressor) (ForestDoc, error) {
	f, ok := r.(*Forest)
	if !ok {
		return ForestDoc{}, fmt.Errorf("ml: cannot persist regressor type %T", r)
	}
	doc := ForestDoc{Kind: "forest", Trees: make([]treeDoc, len(f.trees))}
	for i, t := range f.trees {
		td := treeDoc{MaxDepth: t.MaxDepth, MinLeaf: t.MinLeaf, D: t.d,
			Feature: make([]int, len(t.feature)), Value: make([]float64, len(t.feature))}
		for j, feat := range t.feature {
			td.Feature[j] = int(feat)
			if feat < 0 {
				td.Value[j] = t.value[j]
			} else {
				td.Value[j] = t.thresh[j]
			}
		}
		doc.Trees[i] = td
	}
	return doc, nil
}

// DecodeForest rebuilds the forest doc holds. Every rejection wraps
// ErrCorruptModel.
func DecodeForest(doc *ForestDoc) (*Forest, error) {
	if doc.Kind != "forest" {
		return nil, fmt.Errorf("%w: unknown model kind %q", ErrCorruptModel, doc.Kind)
	}
	if len(doc.Trees) == 0 {
		return nil, fmt.Errorf("%w: forest has no trees", ErrCorruptModel)
	}
	f := NewForest(ForestConfig{NumTrees: len(doc.Trees)})
	f.trees = make([]*Tree, len(doc.Trees))
	for i := range doc.Trees {
		td := &doc.Trees[i]
		if td.D != doc.Trees[0].D {
			return nil, fmt.Errorf("%w: forest tree %d trained on %d features, tree 0 on %d",
				ErrCorruptModel, i, td.D, doc.Trees[0].D)
		}
		t, err := decodeTree(td)
		if err != nil {
			return nil, fmt.Errorf("%w: forest tree %d: %v", ErrCorruptModel, i, err)
		}
		f.trees[i] = t
	}
	return f, nil
}

// decodeTree rebuilds one tree's node arrays in a single pass over its
// preorder arrays. Node i is the left child of node i-1 when that node is a
// split; otherwise node i-1 closed a subtree and node i is the right child
// of the nearest split still waiting for one. The waiting splits form a
// stack, threaded through their own right entries until each is filled, so
// the pass allocates only the tree and needs no recursion. Every split must
// route through a feature the tree was trained on: an out-of-range index
// would read past the end of the prediction row. The index is checked as
// the persisted int, before it narrows to the int32 of the node arrays,
// which d bounds.
func decodeTree(td *treeDoc) (*Tree, error) {
	if td.D < 0 || td.D > math.MaxInt32 {
		return nil, fmt.Errorf("feature dimension %d outside [0, %d]", td.D, math.MaxInt32)
	}
	n := len(td.Feature)
	if len(td.Value) != n {
		return nil, fmt.Errorf("%d features but %d values", n, len(td.Value))
	}
	t := NewTree(td.MaxDepth, td.MinLeaf)
	t.d = td.D
	if n == 0 {
		return t, nil // an unfitted tree
	}
	ints, floats := make([]int32, 3*n), make([]float64, 2*n)
	t.feature, t.left, t.right = ints[:n:n], ints[n:2*n:2*n], ints[2*n:]
	t.thresh, t.value = floats[:n:n], floats[n:]
	waiting := int32(-1) // the nearest split without a right child
	for i, feat := range td.Feature {
		node := int32(i)
		if i > 0 {
			switch {
			case t.feature[i-1] >= 0:
				t.left[i-1] = node
			case waiting < 0:
				return nil, fmt.Errorf("node %d follows the closed tree", i)
			default:
				p := waiting
				waiting, t.right[p] = t.right[p], node
			}
		}
		switch {
		case feat == leafMarker:
			t.feature[i], t.left[i], t.right[i] = -1, -1, -1
			t.value[i] = td.Value[i]
		case feat >= 0 && feat < td.D:
			t.feature[i] = int32(feat)
			t.thresh[i] = td.Value[i]
			t.right[i], waiting = waiting, node
		default:
			return nil, fmt.Errorf("node %d has feature %d, want %d (a leaf) or a split feature in [0, %d)",
				i, feat, leafMarker, td.D)
		}
	}
	if waiting >= 0 {
		return nil, fmt.Errorf("split node %d is missing a child", waiting)
	}
	return t, nil
}
