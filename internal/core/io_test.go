package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"dsenergy/internal/ml"
)

// TestDatasetWriteCSVFormat pins the CSV layout WriteCSV documents: the
// metadata row, the header and one row per sample with shortest-round-trip
// floats, and the error for a sample whose width disagrees with the schema.
func TestDatasetWriteCSVFormat(t *testing.T) {
	ds := &Dataset{
		Schema:          Schema{App: "cronos", Features: []string{"nx", "ny"}},
		Device:          "NVIDIA V100",
		BaselineFreqMHz: 1297,
		Samples: []Sample{
			{Features: []float64{64, 32}, FreqMHz: 1297, TimeS: 0.5, EnergyJ: 120.25},
			{Features: []float64{128, 0.1}, FreqMHz: 735, TimeS: 1.0 / 3, EnergyJ: 1e-7},
		},
	}
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "#dsenergy-dataset,cronos,NVIDIA V100,1297\n" +
		"nx,ny,freq_mhz,time_s,energy_j\n" +
		"64,32,1297,0.5,120.25\n" +
		"128,0.1,735,0.3333333333333333,1e-07\n"
	if got := buf.String(); got != want {
		t.Errorf("WriteCSV wrote\n%s\nwant\n%s", got, want)
	}
	ds.Samples[1].Features = []float64{1}
	if err := ds.WriteCSV(&bytes.Buffer{}); err == nil {
		t.Error("WriteCSV accepted a sample narrower than the schema")
	}
}

func forestTestSpec() ml.Spec {
	return ml.Spec{Algorithm: "forest", Params: map[string]float64{"n_estimators": 10}}
}

func TestModelSaveLoadRoundTrip(t *testing.T) {
	q := testQueue(t)
	ds := cronosDataset(t, q, paperGrids[:3])
	m, err := TrainNormalized(ds, forestTestSpec(), 9)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema.App != m.Schema.App || got.BaselineFreqMHz != m.BaselineFreqMHz ||
		got.Normalized != m.Normalized {
		t.Errorf("metadata changed: %+v", got)
	}
	freqs := []int{q.BaselineFreqMHz(), q.Spec().FMaxMHz()}
	want := m.PredictCurves([]float64{20, 8, 8}, freqs)
	have := got.PredictCurves([]float64{20, 8, 8}, freqs)
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("prediction changed after round trip: %+v vs %+v", want[i], have[i])
		}
	}
}

func TestModelSaveUntrained(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Model{}).Save(&buf); err == nil {
		t.Error("expected error saving untrained model")
	}
}

// TestLoadModelRejectsGarbage: every malformed upload is rejected with the
// typed ml.ErrCorruptModel, from bytes that are not JSON to a payload of the
// wrong shape.
func TestLoadModelRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not json":        "nope",
		"torn object":     "{",
		"array":           "[]",
		"garbage models":  `{"time_model":"bm90IGpzb24=","energy_model":"bm90IGpzb24="}`,
		"no models":       `{"schema":{}}`,
		"unknown kind":    `{"time_model":{"kind":"boosted","payload":{}}}`,
		"malformed trees": `{"time_model":{"kind":"forest","payload":{"trees":"x"}}}`,
	}
	for name, payload := range cases {
		if _, err := LoadModel(strings.NewReader(payload)); !errors.Is(err, ml.ErrCorruptModel) {
			t.Errorf("%s: error %v, want ErrCorruptModel", name, err)
		}
	}
}
