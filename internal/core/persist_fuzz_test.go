package core

import (
	"bytes"
	"errors"
	"testing"

	"dsenergy/internal/ml"
)

// FuzzLoadModel feeds arbitrary bytes to LoadModel, the decode behind every
// model upload the advisor service accepts. No input may make it panic,
// every rejection must be a typed ml.ErrCorruptModel, and every model it
// accepts must answer PredictCurvesBatch on a schema-wide input with curves
// or an error, never a panic. The checked-in corpus
// (testdata/fuzz/FuzzLoadModel) holds a small saved forest, split indices
// past int32, a torn upload and an empty schema.
func FuzzLoadModel(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := LoadModel(bytes.NewReader(payload))
		if err != nil {
			if !errors.Is(err, ml.ErrCorruptModel) {
				t.Fatalf("rejection is not ErrCorruptModel: %v", err)
			}
			return
		}
		in := make([]float64, m.FeatureDim())
		for i := range in {
			in[i] = float64(i + 1)
		}
		freqs := []int{800, 1000, 1380}
		curves, err := m.PredictCurvesBatch([][]float64{in}, freqs)
		if err == nil && (len(curves) != 1 || len(curves[0]) != len(freqs)) {
			t.Fatalf("PredictCurvesBatch returned %d curves for 1 input", len(curves))
		}
	})
}
