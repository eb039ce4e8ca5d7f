package ml

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
)

// SaveRegressor writes r's persisted form to w as one JSON document, the
// way core.Model.Save writes each of its two forests.
func SaveRegressor(w io.Writer, r Regressor) error {
	doc, err := EncodeForest(r)
	if err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(doc)
}

// LoadRegressor reads a document SaveRegressor wrote, the way
// core.LoadModel reads each of its two forests: one strict decode, then
// DecodeForest.
func LoadRegressor(r io.Reader) (Regressor, error) {
	var doc ForestDoc
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("%w: decoding forest: %w", ErrCorruptModel, err)
	}
	f, err := DecodeForest(&doc)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// TestLoadRegressorRejectsCorruptShapes is the decode-time validation table:
// every payload below parses as JSON but could not have been written by
// SaveRegressor over a fitted model, and before validation each one loaded
// "successfully" only to panic or return garbage at the first Predict. All
// must fail with ErrCorruptModel. The linear, lasso and svr kinds are no
// longer persisted by any program: their ten cases keep the nested
// envelope form those kinds were written in, which the strict decode
// rejects, and "retired kind" is the one that reaches the kind check. The
// tree cases sit inside forests, the only kind a program writes, each tree
// as its preorder feature and value arrays.
func TestLoadRegressorRejectsCorruptShapes(t *testing.T) {
	cases := []struct {
		name    string
		payload string
	}{
		{"linear nil coef", `{"kind":"linear","payload":{"intercept":1.5}}`},
		{"linear empty coef", `{"kind":"linear","payload":{"coef":[],"intercept":1.5}}`},
		{"lasso nil coef", `{"kind":"lasso","payload":{"alpha":0.1,"intercept":2}}`},
		{"lasso empty coef", `{"kind":"lasso","payload":{"alpha":0.1,"coef":[],"intercept":2}}`},
		{"svr no support vectors",
			`{"kind":"svr","payload":{"c":1,"epsilon":0.1,"x":[],"beta":[],"mean":[],"scale":[]}}`},
		{"svr zero-width support vectors",
			`{"kind":"svr","payload":{"c":1,"x":[[]],"beta":[0.5],"mean":[],"scale":[]}}`},
		{"svr ragged support vectors",
			`{"kind":"svr","payload":{"c":1,"x":[[1,2],[3]],"beta":[0.5,0.5],"mean":[0,0],"scale":[1,1]}}`},
		{"svr beta length mismatch",
			`{"kind":"svr","payload":{"c":1,"x":[[1,2],[3,4]],"beta":[0.5],"mean":[0,0],"scale":[1,1]}}`},
		{"svr mean length mismatch",
			`{"kind":"svr","payload":{"c":1,"x":[[1,2]],"beta":[0.5],"mean":[0],"scale":[1,1]}}`},
		{"svr scale length mismatch",
			`{"kind":"svr","payload":{"c":1,"x":[[1,2]],"beta":[0.5],"mean":[0,0],"scale":[1]}}`},
		{"retired kind", `{"kind":"svr","trees":[{"d":1,"feature":[-1],"value":[3]}]}`},
		{"tree negative dimension", `{"kind":"forest","trees":[{"d":-1,"feature":[-1],"value":[3]}]}`},
		{"tree split missing child", `{"kind":"forest","trees":[{"d":2,"feature":[0],"value":[1]}]}`},
		{"tree trailing split without right subtree",
			`{"kind":"forest","trees":[{"d":2,"feature":[0,-1],"value":[1,1]}]}`},
		{"tree node after the closed tree",
			`{"kind":"forest","trees":[{"d":2,"feature":[0,-1,-1,-1],"value":[1,1,2,3]}]}`},
		{"tree feature and value lengths differ",
			`{"kind":"forest","trees":[{"d":2,"feature":[0,-1,-1],"value":[1,1]}]}`},
		{"tree value longer than feature",
			`{"kind":"forest","trees":[{"d":2,"feature":[-1],"value":[1,2]}]}`},
		{"tree leaf marker -2", `{"kind":"forest","trees":[{"d":2,"feature":[0,-1,-2],"value":[1,1,2]}]}`},
		{"tree negative split feature",
			`{"kind":"forest","trees":[{"d":2,"feature":[-3,-1,-1],"value":[1,1,2]}]}`},
		{"tree split feature out of range",
			`{"kind":"forest","trees":[{"d":1,"feature":[4,-1,-1],"value":[1,1,2]}]}`},
		// Split indices past int32: each once narrowed to a leaf marker or
		// to an in-range feature before the range check saw it.
		{"tree split feature 2^31",
			`{"kind":"forest","trees":[{"d":3,"feature":[2147483648,-1,-1],"value":[1,1,2]}]}`},
		{"tree split feature 2^32",
			`{"kind":"forest","trees":[{"d":3,"feature":[4294967296,-1,-1],"value":[1,1,2]}]}`},
		{"tree split feature 2^32+1",
			`{"kind":"forest","trees":[{"d":3,"feature":[4294967297,-1,-1],"value":[1,1,2]}]}`},
		{"tree dimension past int32",
			`{"kind":"forest","trees":[{"d":4294967299,"feature":[4294967297,-1,-1],"value":[1,1,2]}]}`},
		{"forest no trees", `{"kind":"forest","trees":[]}`},
		{"forest disagreeing tree dimensions",
			`{"kind":"forest","trees":[` +
				`{"d":2,"feature":[-1],"value":[1]},` +
				`{"d":3,"feature":[-1],"value":[1]}]}`},
		{"forest corrupt member tree",
			`{"kind":"forest","trees":[` +
				`{"d":1,"feature":[-1],"value":[1]},` +
				`{"d":1,"feature":[0],"value":[1]}]}`},
		// The nested form forests were once written in: as a whole
		// envelope, and as one nested tree inside a flat forest.
		{"nested envelope",
			`{"kind":"forest","payload":{"trees":[{"d":2,"root":{"feature":1,"thresh":0.5,` +
				`"left":{"leaf":true,"value":1},"right":{"leaf":true,"value":2}}}]}}`},
		{"nested tree",
			`{"kind":"forest","trees":[{"d":2,"root":{"feature":1,"thresh":0.5,` +
				`"left":{"leaf":true,"value":1},"right":{"leaf":true,"value":2}}}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := LoadRegressor(strings.NewReader(tc.payload))
			if err == nil {
				t.Fatalf("corrupt payload loaded successfully: %#v", r)
			}
			if !errors.Is(err, ErrCorruptModel) {
				t.Fatalf("error is not ErrCorruptModel: %v", err)
			}
		})
	}
}

// TestLoadRegressorTruncatedPayloads covers payloads cut off mid-stream: a
// JSON decode error, not a shape error, but still a load failure.
func TestLoadRegressorTruncatedPayloads(t *testing.T) {
	whole := `{"kind":"forest","trees":[{"d":2,"feature":[1,-1,-1],"value":[0.5,1,2]}]}`
	for _, cut := range []int{1, len(whole) / 3, len(whole) - 2} {
		if _, err := LoadRegressor(strings.NewReader(whole[:cut])); err == nil {
			t.Errorf("payload truncated at %d bytes loaded successfully", cut)
		}
	}
}

// TestLoadRegressorAcceptsValidShapes pins the other side: validation must
// not reject anything SaveRegressor writes (the round-trip test covers the
// fitted path; this covers minimal hand-written documents and a tree far
// deeper than any recursive decoder could walk).
func TestLoadRegressorAcceptsValidShapes(t *testing.T) {
	for _, payload := range []string{
		`{"kind":"forest","trees":[{"d":1,"feature":[-1],"value":[3]}]}`,
		`{"kind":"forest","trees":[{"d":0}]}`, // an unfitted tree round-trips
		`{"kind":"forest","trees":[{"d":2,"feature":[-1],"value":[1]}]}`,
		`{"kind":"forest","trees":[{"d":2,"feature":[1,0,-1,-1,-1],"value":[0.5,2,1,2,3]}]}`,
	} {
		if _, err := LoadRegressor(strings.NewReader(payload)); err != nil {
			t.Errorf("valid payload rejected: %v\n%s", err, payload)
		}
	}

	// A chain of 100,000 splits on x <= k, each with a leaf of value k on
	// its left, closed by a leaf of value -1.
	const depth = 100_000
	var b strings.Builder
	b.WriteString(`{"kind":"forest","trees":[{"d":1,"feature":[`)
	for k := 0; k < depth; k++ {
		b.WriteString("0,-1,")
	}
	b.WriteString(`-1],"value":[`)
	for k := 0; k < depth; k++ {
		fmt.Fprintf(&b, "%d,%d,", k, k)
	}
	b.WriteString(`-1]}]}`)
	r, err := LoadRegressor(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("a %d-deep tree was rejected: %v", depth, err)
	}
	for _, x := range []float64{-3, 0, 0.5, 777, depth - 1, depth} {
		want := math.Ceil(x)
		if x < 0 {
			want = 0
		} else if x > depth-1 {
			want = -1
		}
		if got := r.Predict([]float64{x}); got != want {
			t.Errorf("deep tree predicts %v at %v, want %v", got, x, want)
		}
	}
}

// TestCheckedPredictBatch locks the serving-side inference contract of
// PredictSweep: every regressor family rejects mis-shaped input with an
// error (never Predict's zero fallback, never a trailing feature read as the
// swept column), and on well-shaped input each value is bit-identical to
// Predict on the assembled row.
func TestCheckedPredictBatch(t *testing.T) {
	X := [][]float64{{1, 2}, {2, 1}, {3, 3}, {4, 1}, {0, 5}, {2, 2}, {5, 0}, {1, 4}}
	y := []float64{3, 3, 6, 5, 5, 4, 5, 5}
	fit := func(r Regressor) Regressor {
		if err := r.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		return r
	}
	models := map[string]Regressor{
		"linear": fit(NewLinear()),
		"lasso":  fit(NewLasso(0.01)),
		"svr":    fit(NewSVR(10, 0.01, 0)),
		"tree":   fit(NewTree(4, 1)),
		"forest": fit(NewForest(ForestConfig{NumTrees: 5, Seed: 7})),
	}
	sweep := make([]float64, len(X))
	for j, x := range X {
		sweep[j] = x[1]
	}
	for name, m := range models {
		t.Run(name, func(t *testing.T) {
			got := make([]float64, len(sweep))
			for _, x := range X {
				if err := PredictSweep(m, x[:1], sweep, got); err != nil {
					t.Fatal(err)
				}
				for j, v := range sweep {
					want := m.Predict([]float64{x[0], v})
					if math.Float64bits(got[j]) != math.Float64bits(want) {
						t.Errorf("features %v at %g: sweep %g != predict %g", x[:1], v, got[j], want)
					}
				}
			}
			if err := PredictSweep(m, nil, sweep, got); err == nil {
				t.Error("short row accepted")
			}
			if err := PredictSweep(m, []float64{1, 2}, sweep, got); err == nil {
				t.Error("wide row accepted")
			}
			if err := PredictSweep(m, []float64{1}, sweep, got[:1]); err == nil {
				t.Error("short output accepted")
			}
		})
	}
	for name, m := range map[string]Regressor{
		"linear": NewLinear(), "lasso": NewLasso(0.1), "svr": NewSVR(1, 0.1, 0),
		"tree": NewTree(4, 1), "forest": NewForest(ForestConfig{NumTrees: 3}),
	} {
		if err := PredictSweep(m, []float64{1}, sweep, make([]float64, len(sweep))); err == nil {
			t.Errorf("%s: unfitted model accepted a sweep", name)
		}
	}
}
