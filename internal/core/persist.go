package core

import (
	"encoding/json"
	"fmt"
	"io"

	"dsenergy/internal/ml"
)

// Trained-model persistence: a domain-specific model pair (plus the metadata
// needed to use it — schema, device, baseline, normalization mode)
// serializes to one JSON document, so a model trained from a stored dataset
// can be deployed without refitting. The two forests are typed fields of
// the document in ml's flat preorder form, so a load is one decode followed
// by one validating pass over each tree.

type modelJSON struct {
	Schema          Schema       `json:"schema"`
	Device          string       `json:"device"`
	BaselineFreqMHz int          `json:"baseline_freq_mhz"`
	Normalized      bool         `json:"normalized"`
	TimeModel       ml.ForestDoc `json:"time_model"`
	EnergyModel     ml.ForestDoc `json:"energy_model"`
}

// Save writes the trained model to w.
func (m *Model) Save(w io.Writer) error {
	if m.timeModel == nil || m.energyModel == nil {
		return fmt.Errorf("core: cannot save an untrained model")
	}
	tm, err := ml.EncodeForest(m.timeModel)
	if err != nil {
		return fmt.Errorf("core: saving time model: %w", err)
	}
	em, err := ml.EncodeForest(m.energyModel)
	if err != nil {
		return fmt.Errorf("core: saving energy model: %w", err)
	}
	return json.NewEncoder(w).Encode(modelJSON{
		Schema:          m.Schema,
		Device:          m.Device,
		BaselineFreqMHz: m.BaselineFreqMHz,
		Normalized:      m.Normalized,
		TimeModel:       tm,
		EnergyModel:     em,
	})
}

// LoadModel reads a model written by Save. A field Save does not write is
// rejected, and so is anything but white space after the document. Every
// rejection wraps ml.ErrCorruptModel.
func LoadModel(r io.Reader) (*Model, error) {
	var mj modelJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&mj); err != nil {
		return nil, fmt.Errorf("core: decoding model: %w: %w", ml.ErrCorruptModel, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("core: decoding model: %w: data after the model document", ml.ErrCorruptModel)
	}
	tm, err := ml.DecodeForest(&mj.TimeModel)
	if err != nil {
		return nil, fmt.Errorf("core: loading time model: %w", err)
	}
	em, err := ml.DecodeForest(&mj.EnergyModel)
	if err != nil {
		return nil, fmt.Errorf("core: loading energy model: %w", err)
	}
	return &Model{
		Schema:          mj.Schema,
		Device:          mj.Device,
		BaselineFreqMHz: mj.BaselineFreqMHz,
		Normalized:      mj.Normalized,
		timeModel:       tm,
		energyModel:     em,
	}, nil
}
