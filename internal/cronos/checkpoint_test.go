package cronos

import (
	"bytes"
	"strings"
	"testing"
)

func TestCheckpointRoundTrip(t *testing.T) {
	s := newTestSolver(t, 12, 8, 6, 2)
	InitBlastWave(s.Grid, 0.1, 10, 0.2)
	s.Grid.ApplyBoundary(Periodic)
	for i := 0; i < 4; i++ {
		s.Step()
	}

	var buf bytes.Buffer
	if err := s.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadCheckpoint(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if restored.Time != s.Time || restored.DT != s.DT || restored.StepsRun != s.StepsRun {
		t.Errorf("time state differs: %+v vs t=%g dt=%g steps=%d",
			restored.Time, s.Time, s.DT, s.StepsRun)
	}
	for v := 0; v < NVars; v++ {
		for i := range s.Grid.U[v] {
			if restored.Grid.U[v][i] != s.Grid.U[v][i] {
				t.Fatalf("variable %d differs at %d after restore", v, i)
			}
		}
	}
}

func TestCheckpointContinuationMatchesUninterrupted(t *testing.T) {
	// Running 8 steps straight must equal running 4, checkpointing,
	// restoring, and running 4 more — bit for bit.
	run := func() *Solver {
		s := newTestSolver(t, 10, 6, 8, 3)
		InitBlastWave(s.Grid, 0.1, 10, 0.2)
		s.Grid.ApplyBoundary(Periodic)
		return s
	}
	straight := run()
	for i := 0; i < 8; i++ {
		straight.Step()
	}

	split := run()
	for i := 0; i < 4; i++ {
		split.Step()
	}
	var buf bytes.Buffer
	if err := split.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	resumed, err := ReadCheckpoint(&buf, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	for i := 0; i < 4; i++ {
		resumed.Step()
	}

	if resumed.Time != straight.Time {
		t.Fatalf("times diverge: %g vs %g", resumed.Time, straight.Time)
	}
	for v := 0; v < NVars; v++ {
		for i := range straight.Grid.U[v] {
			if resumed.Grid.U[v][i] != straight.Grid.U[v][i] {
				t.Fatalf("state diverges after restart: var %d idx %d", v, i)
			}
		}
	}
}

func TestCheckpointRejectsGarbage(t *testing.T) {
	if _, err := ReadCheckpoint(strings.NewReader("short"), 1); err == nil {
		t.Error("expected error for truncated checkpoint")
	}
	// Valid-length but wrong magic.
	bad := make([]byte, 64)
	if _, err := ReadCheckpoint(bytes.NewReader(bad), 1); err == nil {
		t.Error("expected error for bad magic")
	}
	// Truncated payload: valid header, missing data.
	s := newTestSolver(t, 4, 4, 4, 1)
	InitUniform(s.Grid, 1, 1, [3]float64{0, 0, 0})
	var buf bytes.Buffer
	if err := s.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := ReadCheckpoint(bytes.NewReader(trunc), 1); err == nil {
		t.Error("expected error for truncated payload")
	}
}
