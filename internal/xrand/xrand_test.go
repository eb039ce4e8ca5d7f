package xrand

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(123), New(123)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("identically seeded generators diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d collisions between different seeds", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(7)
	s := r.Split()
	// The split stream must differ from the parent's continuation.
	diff := false
	for i := 0; i < 20; i++ {
		if r.Uint64() != s.Uint64() {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("split stream mirrors parent stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	var sum float64
	n := 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	if mean := sum / float64(n); math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean %g, want ~0.5", mean)
	}
}

func TestIntn(t *testing.T) {
	r := New(13)
	counts := make([]int, 7)
	for i := 0; i < 7000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < 700 {
			t.Errorf("value %d drawn only %d/7000 times", v, c)
		}
	}
}

func TestIntnPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := New(17)
	var sum, sumSq float64
	n := 100000
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("Norm mean %g, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("Norm variance %g, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(19)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestSplitNMatchesRepeatedSplit(t *testing.T) {
	a, b := New(7), New(7)
	got := a.SplitN(5)
	for i := 0; i < 5; i++ {
		want := b.Split()
		if got[i].Uint64() != want.Uint64() {
			t.Fatalf("SplitN stream %d diverges from sequential Split", i)
		}
	}
	// The parent streams continue identically after the splits.
	if a.Uint64() != b.Uint64() {
		t.Error("SplitN advanced the parent differently from repeated Split")
	}
}

func TestSplitNStreamsDecorrelated(t *testing.T) {
	streams := New(7).SplitN(3)
	seen := map[uint64]bool{}
	for _, s := range streams {
		v := s.Uint64()
		if seen[v] {
			t.Fatal("split streams emitted identical first values")
		}
		seen[v] = true
	}
}
