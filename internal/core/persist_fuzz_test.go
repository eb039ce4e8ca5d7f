package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dsenergy/internal/ml"
)

// FuzzLoadModel feeds arbitrary bytes to LoadModel, the decode behind every
// model upload the advisor service accepts. No input may make it panic,
// every rejection must be a typed ml.ErrCorruptModel, every upload it
// accepts must be rejected once a byte other than white space follows it,
// and every model it accepts must answer PredictCurvesBatch on a
// schema-wide input with curves or an error, never a panic. The checked-in
// corpus (testdata/fuzz/FuzzLoadModel) is the table of TestLoadModelCorpus.
func FuzzLoadModel(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := LoadModel(bytes.NewReader(payload))
		if err != nil {
			if !errors.Is(err, ml.ErrCorruptModel) {
				t.Fatalf("rejection is not ErrCorruptModel: %v", err)
			}
			return
		}
		for _, tail := range []byte("x0]}{\"") {
			if _, err := LoadModel(bytes.NewReader(append(payload[:len(payload):len(payload)], tail))); !errors.Is(err, ml.ErrCorruptModel) {
				t.Fatalf("upload followed by %q: error %v, want ErrCorruptModel", tail, err)
			}
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

// TestLoadModelCorpus pins what each seed of the FuzzLoadModel corpus
// stands for, which the fuzz target, accepting either outcome, cannot: a
// small saved forest pair loads, and every other seed is rejected with
// ml.ErrCorruptModel. Every file of the corpus must be listed here.
func TestLoadModelCorpus(t *testing.T) {
	accept := map[string]bool{
		"small_forest":       true,
		"empty_schema":       false, // no models at all
		"torn_upload":        false, // cut inside the time model's second tree
		"split_2p31":         false, // split features past int32, which
		"split_2p32":         false, // narrow to a leaf marker or to an
		"split_2p32p1":       false, // in-range feature
		"trailing_split":     false, // a split with no right subtree
		"node_after_close":   false, // a node after the tree has closed
		"length_mismatch":    false, // feature and value lengths differ
		"leaf_marker_minus2": false, // -1 is the only leaf marker
		"nested_form":        false, // small_forest in the retired nested form
		"trailing_bytes":     false, // small_forest, then a second upload begins
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzLoadModel")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, f := range files {
		want, ok := accept[f.Name()]
		if !ok {
			t.Errorf("corpus seed %s has no expected outcome", f.Name())
			continue
		}
		seen++
		_, err := LoadModel(bytes.NewReader(corpusBytes(t, filepath.Join(dir, f.Name()))))
		switch {
		case want && err != nil:
			t.Errorf("%s rejected: %v", f.Name(), err)
		case !want && err == nil:
			t.Errorf("%s loaded, want a rejection", f.Name())
		case !want && !errors.Is(err, ml.ErrCorruptModel):
			t.Errorf("%s: rejection is not ErrCorruptModel: %v", f.Name(), err)
		}
	}
	if seen != len(accept) {
		t.Errorf("corpus holds %d of the %d listed seeds", seen, len(accept))
	}
}

// corpusBytes reads the one []byte value of a corpus file.
func corpusBytes(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	header, body, _ := strings.Cut(string(raw), "\n")
	lit, ok := strings.CutPrefix(strings.TrimSpace(body), "[]byte(")
	lit, ok2 := strings.CutSuffix(lit, ")")
	if header != "go test fuzz v1" || !ok || !ok2 {
		t.Fatalf("%s is not a one-value []byte corpus file", path)
	}
	s, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}
