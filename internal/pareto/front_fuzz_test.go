package pareto

import (
	"math"
	"sort"
	"testing"
)

// referenceFront is Front as written with the reflection-based sort.Slice;
// FuzzFront holds the reflection-free Front to it bit for bit.
func referenceFront(points []Point) []Point {
	if len(points) == 0 {
		return nil
	}
	sorted := append([]Point(nil), points...)
	// Sort by speedup descending; ties by energy ascending, then frequency
	// ascending, so the scan below keeps the preferred representative.
	sort.Slice(sorted, func(i, j int) bool {
		// Exact stored-value tie-breaks: identical predictions must compare
		// equal so the comparator stays a strict weak ordering.
		//dsalint:ignore floateq
		if sorted[i].Speedup != sorted[j].Speedup {
			return sorted[i].Speedup > sorted[j].Speedup
		}
		//dsalint:ignore floateq
		if sorted[i].NormEnergy != sorted[j].NormEnergy {
			return sorted[i].NormEnergy < sorted[j].NormEnergy
		}
		return sorted[i].FreqMHz < sorted[j].FreqMHz
	})
	var front []Point
	bestEnergy := math.Inf(1)
	lastSpeedup := math.Inf(1)
	for _, p := range sorted {
		// Strictly lower energy than everything faster -> non-dominated.
		// lastSpeedup is copied verbatim from a scanned point, so exact
		// identity is the correct same-speedup-group test.
		//dsalint:ignore floateq
		if p.NormEnergy < bestEnergy && p.Speedup != lastSpeedup {
			front = append(front, p)
			bestEnergy = p.NormEnergy
			lastSpeedup = p.Speedup
		}
	}
	return front
}

// fuzzClocks is the clock set FuzzFront draws from: small, so duplicate
// clocks occur.
var fuzzClocks = []int{600, 800, 1000, 1200, 1380}

// fuzzValues is the speedup and energy palette FuzzFront draws from: two
// NaN payloads (the canonical one and a negative one), ±Inf, ±0, the
// smallest subnormal, and a few ordinary values that points tie on.
var fuzzValues = []float64{
	math.NaN(),
	math.Float64frombits(0xfff8_0000_0000_0bad),
	math.Inf(1),
	math.Inf(-1),
	0,
	math.Copysign(0, -1),
	math.SmallestNonzeroFloat64,
	0.5,
	1,
	1.25,
	2,
}

// decodePoints decodes up to 40 points from b, three bytes per point: a
// clock index, a speedup index and an energy index, each taken modulo its
// table.
func decodePoints(b []byte) []Point {
	var pts []Point
	for k := 0; k+3 <= len(b) && len(pts) < 40; k += 3 {
		pts = append(pts, Point{
			FreqMHz:    fuzzClocks[int(b[k])%len(fuzzClocks)],
			Speedup:    fuzzValues[int(b[k+1])%len(fuzzValues)],
			NormEnergy: fuzzValues[int(b[k+2])%len(fuzzValues)],
		})
	}
	return pts
}

// samePoints reports whether a and b hold the same points bit for bit.
func samePoints(a, b []Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].FreqMHz != b[i].FreqMHz ||
			math.Float64bits(a[i].Speedup) != math.Float64bits(b[i].Speedup) ||
			math.Float64bits(a[i].NormEnergy) != math.Float64bits(b[i].NormEnergy) {
			return false
		}
	}
	return true
}

// FuzzFront holds Front, and AppendFront computing the front in place in
// its own scratch, to the sort.Slice reference bit for bit on point sets
// with duplicate clocks, NaNs, infinities, signed zeros, subnormals and
// ties, and checks that Front leaves its input untouched. On NaN-free
// inputs the front must also be monotone (strictly falling speedup and
// energy) and idempotent. The checked-in corpus
// (testdata/fuzz/FuzzFront) covers each kind.
func FuzzFront(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		pts := decodePoints(b)
		in := append([]Point(nil), pts...)
		want := referenceFront(pts)
		got := Front(pts)
		if !samePoints(pts, in) {
			t.Fatalf("Front changed its input:\n got %+v\nwant %+v", pts, in)
		}
		if !samePoints(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("Front(%+v)\n = %+v\nwant %+v", in, got, want)
		}
		scratch := append([]Point(nil), pts...)
		if inPlace := AppendFront(scratch[:0], scratch); !samePoints(inPlace, want) {
			t.Fatalf("AppendFront in place on %+v\n = %+v\nwant %+v", in, inPlace, want)
		}
		for _, p := range pts {
			if math.IsNaN(p.Speedup) || math.IsNaN(p.NormEnergy) {
				return
			}
		}
		for i := 1; i < len(got); i++ {
			if !(got[i].Speedup < got[i-1].Speedup && got[i].NormEnergy < got[i-1].NormEnergy) {
				t.Fatalf("front of %+v is not monotone at %d: %+v", in, i, got)
			}
		}
		if again := Front(got); !samePoints(again, got) {
			t.Fatalf("Front is not idempotent on %+v: %+v, then %+v", in, got, again)
		}
	})
}
