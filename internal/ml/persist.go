package ml

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
)

// Model persistence: trained regressors serialize to a self-describing JSON
// envelope, so a model trained from an expensive measurement campaign can be
// stored next to its dataset and reloaded without refitting.

// ErrCorruptModel is the typed error LoadRegressor wraps every shape-
// validation failure in: a payload that decodes as JSON but cannot have been
// written by SaveRegressor over a fitted model (empty coefficient vectors,
// disagreeing support-vector array lengths, out-of-range tree feature
// indices, an empty forest). Callers that hot-reload persisted models match
// it with errors.Is to reject the new version and keep serving the old one,
// instead of loading a model that panics or predicts garbage at first use.
var ErrCorruptModel = errors.New("ml: corrupt persisted model")

// envelope is the on-disk wrapper; Kind selects the payload.
type envelope struct {
	Kind    string          `json:"kind"`
	Payload json.RawMessage `json:"payload"`
}

type linearJSON struct {
	Coef      []float64 `json:"coef"`
	Intercept float64   `json:"intercept"`
}

type lassoJSON struct {
	Alpha     float64   `json:"alpha"`
	Coef      []float64 `json:"coef"`
	Intercept float64   `json:"intercept"`
}

type svrJSON struct {
	C       float64     `json:"c"`
	Epsilon float64     `json:"epsilon"`
	Gamma   float64     `json:"gamma"`
	X       [][]float64 `json:"x"`
	Beta    []float64   `json:"beta"`
	Mean    []float64   `json:"mean"`
	Scale   []float64   `json:"scale"`
	GammaF  float64     `json:"gamma_fitted"`
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

// SaveRegressor writes a fitted regressor to w. Supported concrete types:
// *Linear, *Lasso, *SVR, *Tree, *Forest.
func SaveRegressor(w io.Writer, r Regressor) error {
	var env envelope
	var payload any
	switch m := r.(type) {
	case *Linear:
		env.Kind = "linear"
		payload = linearJSON{Coef: m.Coef, Intercept: m.Intercept}
	case *Lasso:
		env.Kind = "lasso"
		payload = lassoJSON{Alpha: m.Alpha, Coef: m.Coef, Intercept: m.Intercept}
	case *SVR:
		env.Kind = "svr"
		payload = svrJSON{
			C: m.C, Epsilon: m.Epsilon, Gamma: m.Gamma,
			X: m.x, Beta: m.beta, Mean: m.mean, Scale: m.scale, GammaF: m.gamma,
		}
	case *Tree:
		env.Kind = "tree"
		payload = encodeTree(m)
	case *Forest:
		env.Kind = "forest"
		fj := forestJSON{Trees: make([]treeJSON, len(m.trees))}
		for i, t := range m.trees {
			fj.Trees[i] = encodeTree(t)
		}
		payload = fj
	default:
		return fmt.Errorf("ml: cannot persist regressor type %T", r)
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	env.Payload = raw
	return json.NewEncoder(w).Encode(env)
}

// LoadRegressor reads a regressor written by SaveRegressor.
func LoadRegressor(r io.Reader) (Regressor, error) {
	var env envelope
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("ml: decoding model envelope: %w", err)
	}
	switch env.Kind {
	case "linear":
		var p linearJSON
		if err := json.Unmarshal(env.Payload, &p); err != nil {
			return nil, err
		}
		if len(p.Coef) == 0 {
			return nil, fmt.Errorf("%w: linear payload has no coefficients", ErrCorruptModel)
		}
		return &Linear{Coef: p.Coef, Intercept: p.Intercept}, nil
	case "lasso":
		var p lassoJSON
		if err := json.Unmarshal(env.Payload, &p); err != nil {
			return nil, err
		}
		if len(p.Coef) == 0 {
			return nil, fmt.Errorf("%w: lasso payload has no coefficients", ErrCorruptModel)
		}
		m := NewLasso(p.Alpha)
		m.Coef = p.Coef
		m.Intercept = p.Intercept
		return m, nil
	case "svr":
		var p svrJSON
		if err := json.Unmarshal(env.Payload, &p); err != nil {
			return nil, err
		}
		if err := validateSVR(p); err != nil {
			return nil, err
		}
		m := NewSVR(p.C, p.Epsilon, p.Gamma)
		m.x, m.beta, m.mean, m.scale, m.gamma = p.X, p.Beta, p.Mean, p.Scale, p.GammaF
		return m, nil
	case "tree":
		var p treeJSON
		if err := json.Unmarshal(env.Payload, &p); err != nil {
			return nil, err
		}
		return decodeTree(p)
	case "forest":
		var p forestJSON
		if err := json.Unmarshal(env.Payload, &p); err != nil {
			return nil, err
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
	default:
		return nil, fmt.Errorf("ml: unknown persisted model kind %q", env.Kind)
	}
}

// validateSVR checks the support-vector arrays agree on their dimensions: n
// support rows of one common width d, n dual coefficients, and d-wide
// standardization vectors. Any disagreement would index out of range (or
// silently mis-scale) at the first Predict.
func validateSVR(p svrJSON) error {
	n := len(p.X)
	if n == 0 {
		return fmt.Errorf("%w: svr payload has no support vectors", ErrCorruptModel)
	}
	d := len(p.X[0])
	if d == 0 {
		return fmt.Errorf("%w: svr support vectors are zero-width", ErrCorruptModel)
	}
	for i, row := range p.X {
		if len(row) != d {
			return fmt.Errorf("%w: svr support vector %d has %d features, want %d",
				ErrCorruptModel, i, len(row), d)
		}
	}
	if len(p.Beta) != n {
		return fmt.Errorf("%w: svr has %d support vectors but %d dual coefficients",
			ErrCorruptModel, n, len(p.Beta))
	}
	if len(p.Mean) != d || len(p.Scale) != d {
		return fmt.Errorf("%w: svr feature width %d disagrees with mean/scale lengths %d/%d",
			ErrCorruptModel, d, len(p.Mean), len(p.Scale))
	}
	return nil
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
