package core

import (
	"bytes"
	"errors"
	"path/filepath"
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

func TestModelSaveUntrained(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Model{}).Save(&buf); err == nil {
		t.Error("expected error saving untrained model")
	}
}

// TestLoadModelRejectsGarbage: every malformed upload is rejected with the
// typed ml.ErrCorruptModel, from bytes that are not JSON to a payload of the
// wrong shape and a valid model followed by more than white space.
func TestLoadModelRejectsGarbage(t *testing.T) {
	valid := string(corpusBytes(t, filepath.Join("testdata", "fuzz", "FuzzLoadModel", "small_forest")))
	if _, err := LoadModel(strings.NewReader(valid + " \t\r\n")); err != nil {
		t.Fatalf("trailing white space rejected: %v", err)
	}
	cases := map[string]string{
		"not json":        "nope",
		"torn object":     "{",
		"array":           "[]",
		"garbage models":  `{"time_model":"bm90IGpzb24=","energy_model":"bm90IGpzb24="}`,
		"no models":       `{"schema":{}}`,
		"unknown kind":    `{"time_model":{"kind":"boosted","trees":[]}}`,
		"malformed trees": `{"time_model":{"kind":"forest","trees":"x"}}`,
		"unknown field":   `{"schema":{},"time_model":{"kind":"forest","trees":[]},"comment":"x"}`,
		"nested tree": `{"time_model":{"kind":"forest","trees":[{"d":1,"root":{"leaf":true,"value":3}}]},` +
			`"energy_model":{"kind":"forest","trees":[{"d":1,"feature":[-1],"value":[3]}]}}`,
		"trailing garbage":       valid + "garbage",
		"trailing brackets":      valid + "]]]",
		"trailing second upload": valid + `{"schema":`,
	}
	for name, payload := range cases {
		if _, err := LoadModel(strings.NewReader(payload)); !errors.Is(err, ml.ErrCorruptModel) {
			t.Errorf("%s: error %v, want ErrCorruptModel", name, err)
		}
	}
}
