package cronos

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Checkpoint / restart: production MHD campaigns run for days, so the solver
// state must survive process boundaries. The format is a fixed little-endian
// header (magic, version, dimensions, time, dt, steps) followed by the raw
// conserved-variable arrays including ghost layers.

const (
	checkpointMagic   = 0x43524f4e4f533031 // "CRONOS01"
	checkpointVersion = 1
)

type checkpointHeader struct {
	Magic      uint64
	Version    uint32
	NX, NY, NZ uint32
	Time       float64
	DT         float64
	StepsRun   uint64
	Boundary   uint32
	_          uint32 // padding for 8-byte alignment
}

// WriteCheckpoint serializes the solver state.
func (s *Solver) WriteCheckpoint(w io.Writer) error {
	h := checkpointHeader{
		Magic: checkpointMagic, Version: checkpointVersion,
		NX: uint32(s.Grid.NX), NY: uint32(s.Grid.NY), NZ: uint32(s.Grid.NZ),
		Time: s.Time, DT: s.DT, StepsRun: uint64(s.StepsRun),
		Boundary: uint32(s.cfg.Boundary),
	}
	if err := binary.Write(w, binary.LittleEndian, &h); err != nil {
		return fmt.Errorf("cronos: writing checkpoint header: %w", err)
	}
	for v := 0; v < NVars; v++ {
		if err := binary.Write(w, binary.LittleEndian, s.Grid.U[v]); err != nil {
			return fmt.Errorf("cronos: writing variable %d: %w", v, err)
		}
	}
	return nil
}

// ReadCheckpoint reconstructs a solver from a checkpoint. The restored
// solver continues exactly where the writer stopped (same dt, time, steps);
// the caller closes it.
func ReadCheckpoint(r io.Reader, workers int) (*Solver, error) {
	var h checkpointHeader
	if err := binary.Read(r, binary.LittleEndian, &h); err != nil {
		return nil, fmt.Errorf("cronos: reading checkpoint header: %w", err)
	}
	if h.Magic != checkpointMagic {
		return nil, fmt.Errorf("cronos: not a checkpoint (bad magic %#x)", h.Magic)
	}
	if h.Version != checkpointVersion {
		return nil, fmt.Errorf("cronos: unsupported checkpoint version %d", h.Version)
	}
	if h.NX == 0 || h.NY == 0 || h.NZ == 0 ||
		h.NX > 1<<20 || h.NY > 1<<20 || h.NZ > 1<<20 {
		return nil, fmt.Errorf("cronos: implausible checkpoint dimensions %dx%dx%d", h.NX, h.NY, h.NZ)
	}
	if math.IsNaN(h.Time) || math.IsNaN(h.DT) || h.DT <= 0 {
		return nil, fmt.Errorf("cronos: corrupt checkpoint time state")
	}

	s, err := NewSolver(Config{
		NX: int(h.NX), NY: int(h.NY), NZ: int(h.NZ),
		Boundary: Boundary(h.Boundary),
		Workers:  workers,
	})
	if err != nil {
		return nil, err
	}
	for v := 0; v < NVars; v++ {
		if err := binary.Read(r, binary.LittleEndian, s.Grid.U[v]); err != nil {
			s.Close()
			return nil, fmt.Errorf("cronos: reading variable %d: %w", v, err)
		}
	}
	if !s.Grid.IsFinite() {
		s.Close()
		return nil, fmt.Errorf("cronos: checkpoint contains non-finite state")
	}
	s.Time = h.Time
	s.DT = h.DT
	s.StepsRun = int(h.StepsRun)
	return s, nil
}
