package ml

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
)

// Model persistence: trained forests serialize to a self-describing JSON
// envelope, so a model trained from an expensive measurement campaign can be
// stored next to its dataset and reloaded without refitting.

// ErrCorruptModel is the typed error LoadRegressor wraps every rejection in:
// malformed JSON, an unknown model kind, and a payload that decodes but
// cannot have been written by SaveRegressor over a fitted model
// (out-of-range tree feature indices, disagreeing tree dimensions, an empty
// forest). Callers that hot-reload persisted models match it with errors.Is
// to reject the new version and keep serving the old one, instead of loading
// a model that panics or predicts garbage at first use.
var ErrCorruptModel = errors.New("ml: corrupt persisted model")

// envelope is the on-disk wrapper; Kind names the model family, and
// "forest" is the only one written or read.
type envelope struct {
	Kind    string          `json:"kind"`
	Payload json.RawMessage `json:"payload"`
}

type nodeJSON struct {
	Leaf    bool      `json:"leaf"`
	Value   float64   `json:"value,omitempty"`
	Feature int       `json:"feature,omitempty"`
	Thresh  float64   `json:"thresh,omitempty"`
	Left    *nodeJSON `json:"left,omitempty"`
	Right   *nodeJSON `json:"right,omitempty"`
}

type treeJSON struct {
	MaxDepth int       `json:"max_depth"`
	MinLeaf  int       `json:"min_leaf"`
	D        int       `json:"d"`
	Root     *nodeJSON `json:"root"`
}

type forestJSON struct {
	Trees []treeJSON `json:"trees"`
}

// SaveRegressor writes a fitted forest to w. Forests are the only regressors
// a program persists, so any other type is refused.
func SaveRegressor(w io.Writer, r Regressor) error {
	m, ok := r.(*Forest)
	if !ok {
		return fmt.Errorf("ml: cannot persist regressor type %T", r)
	}
	fj := forestJSON{Trees: make([]treeJSON, len(m.trees))}
	for i, t := range m.trees {
		fj.Trees[i] = encodeTree(t)
	}
	raw, err := json.Marshal(fj)
	if err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(envelope{Kind: "forest", Payload: raw})
}

// LoadRegressor reads a forest written by SaveRegressor.
func LoadRegressor(r io.Reader) (Regressor, error) {
	var env envelope
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("%w: decoding model envelope: %w", ErrCorruptModel, err)
	}
	if env.Kind != "forest" {
		return nil, fmt.Errorf("%w: unknown model kind %q", ErrCorruptModel, env.Kind)
	}
	var p forestJSON
	if err := json.Unmarshal(env.Payload, &p); err != nil {
		return nil, fmt.Errorf("%w: decoding forest payload: %w", ErrCorruptModel, err)
	}
	if len(p.Trees) == 0 {
		return nil, fmt.Errorf("%w: forest payload has no trees", ErrCorruptModel)
	}
	f := NewForest(ForestConfig{NumTrees: len(p.Trees)})
	f.trees = make([]*Tree, len(p.Trees))
	for i, tj := range p.Trees {
		t, err := decodeTree(tj)
		if err != nil {
			return nil, err
		}
		if i > 0 && t.d != f.trees[0].d {
			return nil, fmt.Errorf("%w: forest tree %d trained on %d features, tree 0 on %d",
				ErrCorruptModel, i, t.d, f.trees[0].d)
		}
		f.trees[i] = t
	}
	return f, nil
}

// encodeTree renders the flat preorder node arrays back into the nested
// nodeJSON envelope, byte-identical to what the legacy pointer trees wrote.
func encodeTree(t *Tree) treeJSON {
	tj := treeJSON{MaxDepth: t.MaxDepth, MinLeaf: t.MinLeaf, D: t.d}
	if len(t.feature) > 0 {
		tj.Root = encodeNode(t, 0)
	}
	return tj
}

func encodeNode(t *Tree, i int32) *nodeJSON {
	if t.feature[i] < 0 {
		return &nodeJSON{Leaf: true, Value: t.value[i]}
	}
	return &nodeJSON{
		Feature: int(t.feature[i]), Thresh: t.thresh[i],
		Left: encodeNode(t, t.left[i]), Right: encodeNode(t, t.right[i]),
	}
}

func decodeTree(p treeJSON) (*Tree, error) {
	if p.D < 0 || p.D > math.MaxInt32 {
		return nil, fmt.Errorf("%w: tree feature dimension %d outside [0, %d]",
			ErrCorruptModel, p.D, math.MaxInt32)
	}
	t := NewTree(p.MaxDepth, p.MinLeaf)
	t.d = p.D
	if p.Root == nil {
		return t, nil
	}
	if err := decodeNode(t, p.Root, 0); err != nil {
		return nil, err
	}
	return t, nil
}

// decodeNode appends the nested payload into the tree's SoA arrays in
// preorder (node, left subtree, right subtree) — the same layout fit
// produces, so loaded and freshly trained trees are indistinguishable.
// Every split must route through a feature the tree was trained on: an
// out-of-range index would read past the end of the prediction row. The
// index is checked as the persisted int, before it narrows to the int32 of
// the node arrays, which t.d bounds.
func decodeNode(t *Tree, p *nodeJSON, depth int) error {
	if depth > 10000 {
		return fmt.Errorf("%w: persisted tree deeper than 10000 levels", ErrCorruptModel)
	}
	if p.Leaf {
		t.pushLeaf(p.Value)
		return nil
	}
	if p.Left == nil || p.Right == nil {
		return fmt.Errorf("%w: persisted split node missing a child", ErrCorruptModel)
	}
	if p.Feature < 0 || p.Feature >= t.d {
		return fmt.Errorf("%w: persisted split on feature %d but dimension is %d",
			ErrCorruptModel, p.Feature, t.d)
	}
	node := t.pushSplit(p.Feature, p.Thresh)
	t.left[node] = int32(len(t.feature))
	if err := decodeNode(t, p.Left, depth+1); err != nil {
		return err
	}
	t.right[node] = int32(len(t.feature))
	return decodeNode(t, p.Right, depth+1)
}
