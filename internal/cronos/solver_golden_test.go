package cronos

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// The hashes below were generated from the pre-tiling solver (per-pencil
// allocation, channel+mutex CFL reduction, per-substep changes clear) at the
// commit before the cache-blocked rewrite. The tiled SoA engine must
// reproduce them bit-for-bit: the refactor is a memory-layout change only,
// with every float operation kept in the reference order.
const (
	goldenBlastPeriodic = "33560b598ff546b7bd49d63ac6c13467af4686c80e7e05ca4b3541f5ddf0d054"
	goldenBlastOutflow  = "7a88010b29c77893abed000f458e2633dbb450f775e2f12c5560e98389730553"
)

// stateHash digests the full ghosted conserved state plus DT and Time.
func stateHash(s *Solver) string {
	h := sha256.New()
	var buf [8]byte
	for v := 0; v < NVars; v++ {
		for _, x := range s.Grid.U[v] {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(s.DT))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(s.Time))
	h.Write(buf[:])
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestGoldenBlastPeriodic(t *testing.T) {
	s, err := NewSolver(Config{NX: 16, NY: 12, NZ: 10, Boundary: Periodic, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	InitBlastWave(s.Grid, 0.1, 10, 0.2)
	s.Grid.ApplyBoundary(Periodic)
	for i := 0; i < 6; i++ {
		s.Step()
	}
	if got := stateHash(s); got != goldenBlastPeriodic {
		t.Fatalf("blast/periodic state drifted from pre-tiling solver:\n got %s\nwant %s", got, goldenBlastPeriodic)
	}
}

func TestGoldenBlastOutflow(t *testing.T) {
	s, err := NewSolver(Config{NX: 10, NY: 8, NZ: 6, Boundary: Outflow, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	InitBlastWave(s.Grid, 0.1, 10, 0.25)
	s.Grid.ApplyBoundary(Outflow)
	for i := 0; i < 4; i++ {
		s.Step()
	}
	if got := stateHash(s); got != goldenBlastOutflow {
		t.Fatalf("blast/outflow state drifted from pre-tiling solver:\n got %s\nwant %s", got, goldenBlastOutflow)
	}
}

// TestTileWidthInvariance locks the tiling contract: TileWidth tunes cache
// behaviour only, so every width — degenerate single-pencil tiles, widths
// that do not divide NX, and widths larger than NX — must produce the exact
// reference bits for every worker count.
func TestTileWidthInvariance(t *testing.T) {
	run := func(workers, tileWidth int) string {
		s, err := NewSolver(Config{
			NX: 14, NY: 11, NZ: 9, Boundary: Periodic,
			Workers: workers, TileWidth: tileWidth,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		InitBlastWave(s.Grid, 0.1, 10, 0.2)
		s.Grid.ApplyBoundary(Periodic)
		for i := 0; i < 4; i++ {
			s.Step()
		}
		return stateHash(s)
	}
	want := run(1, 1)
	for _, workers := range []int{1, 2, 5} {
		for _, tw := range []int{1, 3, 16, 64} {
			if got := run(workers, tw); got != want {
				t.Errorf("workers=%d tileWidth=%d: state %s differs from workers=1 tileWidth=1 reference %s",
					workers, tw, got, want)
			}
		}
	}
}
