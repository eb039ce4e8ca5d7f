package parallel

import (
	"sync/atomic"
	"testing"
)

// slab is one body call of a Gang.Run.
type slab struct{ lo, hi int }

// staticSlabs is the partition the MHD solver's private fan-out used before
// the gang: at most min(workers, n) contiguous slabs of ceil(n/w) indices.
func staticSlabs(n, workers int) []slab {
	w := min(workers, n)
	if w <= 1 {
		return []slab{{0, n}}
	}
	chunk := (n + w - 1) / w
	var out []slab
	for lo := 0; lo < n; lo += chunk {
		out = append(out, slab{lo, min(lo+chunk, n)})
	}
	return out
}

func TestGangRunVisitsEveryIndexOnce(t *testing.T) {
	for workers := 1; workers <= 9; workers++ {
		g := NewGang(workers)
		for _, n := range []int{1, 2, 7, 64, 1000} {
			counts := make([]int64, n)
			g.Run(n, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt64(&counts[i], 1)
				}
			})
			for i, c := range counts {
				if c != 1 {
					t.Errorf("workers=%d n=%d: index %d ran %d times", workers, n, i, c)
				}
			}
		}
		g.Close()
	}
}

func TestGangSlabsMatchStaticPartition(t *testing.T) {
	for workers := 1; workers <= 9; workers++ {
		g := NewGang(workers)
		got := make([]slab, workers)
		for n := 0; n <= 40; n++ {
			calls := make([]int64, workers)
			slabs := g.Run(n, func(s, lo, hi int) {
				got[s] = slab{lo, hi}
				atomic.AddInt64(&calls[s], 1)
			})
			want := staticSlabs(n, workers)
			if slabs != len(want) {
				t.Errorf("workers=%d n=%d: Run returned %d slabs, want %d", workers, n, slabs, len(want))
				continue
			}
			for s := range want {
				if calls[s] != 1 || got[s] != want[s] {
					t.Errorf("workers=%d n=%d slab %d: ran %d times with %v, want once with %v",
						workers, n, s, calls[s], got[s], want[s])
				}
			}
			for s := len(want); s < workers; s++ {
				if calls[s] != 0 {
					t.Errorf("workers=%d n=%d: slab %d ran past the slab count %d", workers, n, s, len(want))
				}
			}
		}
		g.Close()
	}
}

func TestGangRunAllocatesNothing(t *testing.T) {
	g := NewGang(4)
	defer g.Close()
	out := make([]float64, 256)
	body := func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = float64(i)
		}
	}
	if avg := testing.AllocsPerRun(100, func() { g.Run(len(out), body) }); avg != 0 {
		t.Errorf("Run allocates %.1f objects per call, want 0", avg)
	}
}

// TestGangRepeatedRunAndClose drives many gangs through many dispatches,
// each slab writing its own slot, so the race detector sees the hand-off of
// every dispatch and of Close.
func TestGangRepeatedRunAndClose(t *testing.T) {
	for round := 0; round < 8; round++ {
		g := NewGang(3)
		sums := make([]int, 3)
		for d := 0; d < 20; d++ {
			slabs := g.Run(30+d, func(s, lo, hi int) {
				for i := lo; i < hi; i++ {
					sums[s] += i
				}
			})
			total := 0
			for s := 0; s < slabs; s++ {
				total += sums[s]
				sums[s] = 0
			}
			if n := 30 + d; total != n*(n-1)/2 {
				t.Fatalf("round %d dispatch %d: slab sums total %d, want %d", round, d, total, n*(n-1)/2)
			}
		}
		g.Close()
		g.Close() // a second Close is a no-op
	}
}

func TestGangCloseOneWorker(t *testing.T) {
	g := NewGang(1)
	ran := 0
	if slabs := g.Run(10, func(s, lo, hi int) { ran += hi - lo }); slabs != 1 || ran != 10 {
		t.Errorf("one-worker Run: %d slabs covering %d indices, want 1 covering 10", slabs, ran)
	}
	g.Close()
}
