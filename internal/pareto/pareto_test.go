package pareto

import (
	"math"
	"testing"
	"testing/quick"

	"dsenergy/internal/xrand"
)

func TestDominates(t *testing.T) {
	a := Point{Speedup: 1.2, NormEnergy: 0.9}
	b := Point{Speedup: 1.0, NormEnergy: 1.0}
	if !a.Dominates(b) {
		t.Error("a should dominate b")
	}
	if b.Dominates(a) {
		t.Error("b should not dominate a")
	}
	if a.Dominates(a) {
		t.Error("a point must not dominate itself")
	}
	c := Point{Speedup: 1.3, NormEnergy: 1.2} // faster but hungrier
	if a.Dominates(c) || c.Dominates(a) {
		t.Error("trade-off points must be mutually non-dominated")
	}
}

func TestFrontSimple(t *testing.T) {
	pts := []Point{
		{FreqMHz: 1000, Speedup: 1.0, NormEnergy: 1.0},
		{FreqMHz: 1200, Speedup: 1.1, NormEnergy: 1.2},
		{FreqMHz: 800, Speedup: 0.9, NormEnergy: 0.8},
		{FreqMHz: 900, Speedup: 0.95, NormEnergy: 1.1}, // dominated by 1000
	}
	f := Front(pts)
	if len(f) != 3 {
		t.Fatalf("front size %d, want 3: %+v", len(f), f)
	}
	// Sorted by descending speedup.
	for i := 1; i < len(f); i++ {
		if f[i].Speedup > f[i-1].Speedup {
			t.Error("front not sorted by descending speedup")
		}
		if f[i].NormEnergy >= f[i-1].NormEnergy {
			t.Error("front energies not strictly increasing with speedup")
		}
	}
	for _, p := range f {
		if p.FreqMHz == 900 {
			t.Error("dominated point on the front")
		}
	}
}

func TestFrontDuplicateOutcomeRepresentative(t *testing.T) {
	// When several frequencies land on the exact same (speedup, energy)
	// outcome, the front keeps one representative: the lowest frequency,
	// being the cheaper configuration.
	cases := []struct {
		name      string
		pts       []Point
		wantFreqs []int
	}{
		{
			name: "exact duplicate keeps lowest frequency",
			pts: []Point{
				{FreqMHz: 1200, Speedup: 1.0, NormEnergy: 1.0},
				{FreqMHz: 900, Speedup: 1.0, NormEnergy: 1.0},
				{FreqMHz: 1050, Speedup: 1.0, NormEnergy: 1.0},
			},
			wantFreqs: []int{900},
		},
		{
			name: "duplicate group beside distinct members",
			pts: []Point{
				{FreqMHz: 1400, Speedup: 1.2, NormEnergy: 1.3},
				{FreqMHz: 1100, Speedup: 1.0, NormEnergy: 1.0},
				{FreqMHz: 1000, Speedup: 1.0, NormEnergy: 1.0},
				{FreqMHz: 700, Speedup: 0.8, NormEnergy: 0.7},
			},
			wantFreqs: []int{1400, 1000, 700},
		},
		{
			name: "same speedup different energy keeps cheaper energy only",
			pts: []Point{
				{FreqMHz: 1000, Speedup: 1.0, NormEnergy: 1.1},
				{FreqMHz: 1200, Speedup: 1.0, NormEnergy: 1.0},
			},
			wantFreqs: []int{1200},
		},
		{
			name: "duplicate outcomes dominated by a faster point drop entirely",
			pts: []Point{
				{FreqMHz: 1300, Speedup: 1.2, NormEnergy: 0.9},
				{FreqMHz: 1000, Speedup: 1.0, NormEnergy: 1.0},
				{FreqMHz: 900, Speedup: 1.0, NormEnergy: 1.0},
			},
			wantFreqs: []int{1300},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := Frequencies(Front(c.pts))
			if len(got) != len(c.wantFreqs) {
				t.Fatalf("front frequencies = %v, want %v", got, c.wantFreqs)
			}
			for i := range got {
				if got[i] != c.wantFreqs[i] {
					t.Fatalf("front frequencies = %v, want %v", got, c.wantFreqs)
				}
			}
		})
	}
}

func TestFrontEmpty(t *testing.T) {
	if f := Front(nil); f != nil {
		t.Errorf("front of nothing should be nil, got %v", f)
	}
}

func TestFrontProperties(t *testing.T) {
	// Properties over random point clouds: (1) no front member dominates
	// another; (2) every excluded point is dominated by a front member or
	// duplicates a front member's outcome.
	f := func(seed uint16, n uint8) bool {
		if n == 0 {
			return true
		}
		rng := xrand.New(uint64(seed) + 1)
		pts := make([]Point, int(n%60)+2)
		for i := range pts {
			pts[i] = Point{
				FreqMHz:    500 + 10*i,
				Speedup:    0.5 + rng.Float64(),
				NormEnergy: 0.5 + rng.Float64(),
			}
		}
		front := Front(pts)
		onFront := map[int]bool{}
		for _, p := range front {
			onFront[p.FreqMHz] = true
		}
		for i, a := range front {
			for j, b := range front {
				if i != j && a.Dominates(b) {
					return false
				}
			}
		}
		for _, p := range pts {
			if onFront[p.FreqMHz] {
				continue
			}
			covered := false
			for _, fp := range front {
				if fp.Dominates(p) || (fp.Speedup == p.Speedup && fp.NormEnergy == p.NormEnergy) {
					covered = true
					break
				}
			}
			if !covered {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestExactMatches(t *testing.T) {
	if got := ExactMatches([]int{1, 2, 3}, []int{2, 3, 4}); got != 2 {
		t.Errorf("exact matches %d, want 2", got)
	}
	if got := ExactMatches(nil, []int{1}); got != 0 {
		t.Errorf("empty prediction matches %d, want 0", got)
	}
}

func TestMeanFrontDistance(t *testing.T) {
	front := []Point{{Speedup: 1, NormEnergy: 1}}
	achieved := []Point{{Speedup: 1, NormEnergy: 1}, {Speedup: 1, NormEnergy: 1.2}}
	got := MeanFrontDistance(achieved, front)
	if !almostEq(got, 0.1, 1e-12) {
		t.Errorf("mean distance %g, want 0.1", got)
	}
	if !math.IsNaN(MeanFrontDistance(nil, front)) {
		t.Error("distance of empty set should be NaN")
	}
}

func TestFrequencies(t *testing.T) {
	pts := []Point{{FreqMHz: 100}, {FreqMHz: 200}}
	fs := Frequencies(pts)
	if len(fs) != 2 || fs[0] != 100 || fs[1] != 200 {
		t.Errorf("frequencies %v", fs)
	}
}

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// Dominates reports whether p is at least as good as q in both objectives
// and strictly better in at least one.
func (p Point) Dominates(q Point) bool {
	if p.Speedup < q.Speedup || p.NormEnergy > q.NormEnergy {
		return false
	}
	return p.Speedup > q.Speedup || p.NormEnergy < q.NormEnergy
}
