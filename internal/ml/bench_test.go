package ml

import (
	"fmt"
	"math"
	"testing"

	"dsenergy/internal/xrand"
)

func benchData(n int) ([][]float64, []float64) {
	rng := xrand.New(42)
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		a, b, c, f := rng.Float64()*10, rng.Float64()*10, rng.Float64()*10, rng.Float64()*1600
		X[i] = []float64{a, b, c, f}
		y[i] = math.Sin(a) + 0.3*b - 0.1*c + f/1600 + 0.02*rng.Norm()
	}
	return X, y
}

// benchDataWide builds an n×d design with d-1 continuous columns plus one
// discrete frequency-style column (cross-row ties, like the real datasets).
func benchDataWide(n, d int) ([][]float64, []float64) {
	rng := xrand.New(4242)
	levels := []float64{800, 1000, 1200, 1400, 1600}
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, d)
		var s float64
		for j := 0; j < d-1; j++ {
			row[j] = rng.Float64() * 10
			if j%3 == 0 {
				s += math.Sin(row[j])
			} else {
				s += 0.1 * float64(j) * row[j]
			}
		}
		row[d-1] = levels[rng.Intn(len(levels))]
		X[i] = row
		y[i] = s + row[d-1]/1600 + 0.02*rng.Norm()
	}
	return X, y
}

func BenchmarkLinearFit(b *testing.B) {
	X, y := benchData(2000)
	for i := 0; i < b.N; i++ {
		m := NewLinear()
		if err := m.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLassoFit(b *testing.B) {
	X, y := benchData(2000)
	for i := 0; i < b.N; i++ {
		m := NewLasso(0.01)
		if err := m.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSVRFit(b *testing.B) {
	X, y := benchData(300) // kernel methods are quadratic; keep modest
	for i := 0; i < b.N; i++ {
		m := NewSVR(10, 0.01, 0)
		if err := m.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForestFit(b *testing.B) {
	X, y := benchData(2000)
	for i := 0; i < b.N; i++ {
		m := NewForest(ForestConfig{NumTrees: 25, Seed: 1})
		if err := m.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreeFit is the single-tree training hot path: one CART fit on a
// 2000×8 design with a discrete column.
func BenchmarkTreeFit(b *testing.B) {
	X, y := benchDataWide(2000, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewTree(0, 1)
		if err := m.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForestFitLarge is the acceptance configuration for the training
// engine: n=1000, d=16, 100 trees, serial (Workers=1) so it measures the
// per-core engine rather than the worker pool.
func BenchmarkForestFitLarge(b *testing.B) {
	X, y := benchDataWide(1000, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewForest(ForestConfig{NumTrees: 100, Seed: 1, Workers: 1})
		if err := m.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForestPredictSweep measures the curve kernel: one input through a
// 50-tree forest at every value of a clock sweep (baseline first, then an
// ascending menu, as core.Model.PredictCurvesBatch lays it out), at the
// 10- and 19-value sweeps of a 9- and an 18-clock menu. The rows arm
// evaluates the same sweep as one assembled row per value through Predict,
// the per-row walk the kernel replaces.
func BenchmarkForestPredictSweep(b *testing.B) {
	X, y := benchData(2000)
	m := NewForest(ForestConfig{NumTrees: 50, Seed: 1})
	if err := m.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	features := []float64{5, 5, 5}
	for _, n := range []int{10, 19} {
		sweep := make([]float64, n)
		sweep[0] = 1300
		for j := 1; j < n; j++ {
			sweep[j] = 400 + 1200*float64(j-1)/float64(n-2)
		}
		rows := make([][]float64, n)
		for j, v := range sweep {
			rows[j] = append(append([]float64(nil), features...), v)
		}
		out := make([]float64, n)
		b.Run(fmt.Sprintf("values=%d/sweep", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := PredictSweep(m, features, sweep, out); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("values=%d/rows", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j, row := range rows {
					out[j] = m.Predict(row)
				}
			}
		})
	}
}

func BenchmarkForestPredict(b *testing.B) {
	X, y := benchData(2000)
	m := NewForest(ForestConfig{NumTrees: 50, Seed: 1})
	if err := m.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	probe := []float64{5, 5, 5, 1300}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Predict(probe)
	}
}

// BenchmarkLassoFitWide is the active-set acceptance shape: a 2000×16 design
// where the L1 penalty zeroes most coordinates, so sweeps over the full
// coordinate range waste work the active set can skip.
func BenchmarkLassoFitWide(b *testing.B) {
	X, y := benchDataWide(2000, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewLasso(0.01)
		if err := m.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSVRFitLarge is the shrinking acceptance shape: n=600 doubles the
// kernel matrix rows of BenchmarkSVRFit, so bound-clipped coordinates
// dominate the dual sweeps.
func BenchmarkSVRFitLarge(b *testing.B) {
	X, y := benchDataWide(600, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewSVR(10, 0.01, 0)
		if err := m.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}
