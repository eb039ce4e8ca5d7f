package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"dsenergy/internal/ml"
)

// Trained-model persistence: a domain-specific model pair (plus the metadata
// needed to use it — schema, device, baseline, normalization mode)
// serializes to one JSON document, so a model trained from a stored dataset
// can be deployed without refitting.

type modelJSON struct {
	Schema          Schema          `json:"schema"`
	Device          string          `json:"device"`
	BaselineFreqMHz int             `json:"baseline_freq_mhz"`
	Normalized      bool            `json:"normalized"`
	TimeModel       json.RawMessage `json:"time_model"`
	EnergyModel     json.RawMessage `json:"energy_model"`
}

// Save writes the trained model to w.
func (m *Model) Save(w io.Writer) error {
	if m.timeModel == nil || m.energyModel == nil {
		return fmt.Errorf("core: cannot save an untrained model")
	}
	var tm, em bytes.Buffer
	if err := ml.SaveRegressor(&tm, m.timeModel); err != nil {
		return fmt.Errorf("core: saving time model: %w", err)
	}
	if err := ml.SaveRegressor(&em, m.energyModel); err != nil {
		return fmt.Errorf("core: saving energy model: %w", err)
	}
	return json.NewEncoder(w).Encode(modelJSON{
		Schema:          m.Schema,
		Device:          m.Device,
		BaselineFreqMHz: m.BaselineFreqMHz,
		Normalized:      m.Normalized,
		TimeModel:       tm.Bytes(),
		EnergyModel:     em.Bytes(),
	})
}

// LoadModel reads a model written by Save. Every rejection wraps
// ml.ErrCorruptModel.
func LoadModel(r io.Reader) (*Model, error) {
	var mj modelJSON
	if err := json.NewDecoder(r).Decode(&mj); err != nil {
		return nil, fmt.Errorf("core: decoding model: %w: %w", ml.ErrCorruptModel, err)
	}
	tm, err := ml.LoadRegressor(bytes.NewReader(mj.TimeModel))
	if err != nil {
		return nil, fmt.Errorf("core: loading time model: %w", err)
	}
	em, err := ml.LoadRegressor(bytes.NewReader(mj.EnergyModel))
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
