package ml

import (
	"fmt"
	"math"

	"dsenergy/internal/xrand"
)

// KMeans is Lloyd's algorithm with k-means++ seeding. The repository uses it
// to reproduce the clustering-based GPU performance/power methodology of Wu
// et al. (HPCA'15), the second general-purpose baseline family the paper's
// related work discusses: kernels are clustered by their feature vectors and
// each cluster carries a representative scaling curve.
type KMeans struct {
	// K is the cluster count.
	K int
	// MaxIter bounds Lloyd iterations.
	MaxIter int
	// Tol stops iteration when centroid movement falls below it.
	Tol float64

	Centroids [][]float64
	// Inertia is the final within-cluster sum of squared distances.
	Inertia float64
}

// NewKMeans returns a clusterer with scikit-learn-like defaults.
func NewKMeans(k int) *KMeans {
	return &KMeans{K: k, MaxIter: 300, Tol: 1e-9}
}

// Fit clusters the rows of X. Seeding and tie-breaking are deterministic in
// seed.
func (km *KMeans) Fit(X [][]float64, seed uint64) error {
	n := len(X)
	if n == 0 {
		return fmt.Errorf("ml: kmeans on empty data")
	}
	if km.K < 1 || km.K > n {
		return fmt.Errorf("ml: kmeans needs 1 <= k <= n, got k=%d n=%d", km.K, n)
	}
	d := len(X[0])
	for i, r := range X {
		if len(r) != d {
			return fmt.Errorf("ml: kmeans row %d has %d features, want %d", i, len(r), d)
		}
	}
	rng := xrand.New(seed)

	// k-means++ seeding.
	cents := make([][]float64, 0, km.K)
	cents = append(cents, append([]float64(nil), X[rng.Intn(n)]...))
	dist2 := make([]float64, n)
	for len(cents) < km.K {
		var total float64
		for i, x := range X {
			best := math.Inf(1)
			for _, c := range cents {
				if dd := sqDist(x, c); dd < best {
					best = dd
				}
			}
			dist2[i] = best
			total += best
		}
		if total == 0 {
			// All remaining points coincide with centroids; duplicate one.
			cents = append(cents, append([]float64(nil), X[rng.Intn(n)]...))
			continue
		}
		r := rng.Float64() * total
		acc := 0.0
		pick := n - 1
		for i, dd := range dist2 {
			acc += dd
			if acc >= r {
				pick = i
				break
			}
		}
		cents = append(cents, append([]float64(nil), X[pick]...))
	}

	assign := make([]int, n)
	counts := make([]int, km.K)
	for it := 0; it < km.MaxIter; it++ {
		// Assignment step.
		for i, x := range X {
			best, bi := math.Inf(1), 0
			for c, cent := range cents {
				if dd := sqDist(x, cent); dd < best {
					best, bi = dd, c
				}
			}
			assign[i] = bi
		}
		// Update step.
		next := make([][]float64, km.K)
		for c := range next {
			next[c] = make([]float64, d)
			counts[c] = 0
		}
		for i, x := range X {
			c := assign[i]
			counts[c]++
			for j, v := range x {
				next[c][j] += v
			}
		}
		var moved float64
		for c := range next {
			if counts[c] == 0 {
				// Re-seed empty clusters at the farthest point.
				far, fi := -1.0, 0
				for i, x := range X {
					if dd := sqDist(x, cents[assign[i]]); dd > far {
						far, fi = dd, i
					}
				}
				copy(next[c], X[fi])
			} else {
				inv := 1 / float64(counts[c])
				for j := range next[c] {
					next[c][j] *= inv
				}
			}
			moved += math.Sqrt(sqDist(next[c], cents[c]))
			cents[c] = next[c]
		}
		if moved < km.Tol {
			break
		}
	}

	km.Centroids = cents
	km.Inertia = 0
	for i, x := range X {
		km.Inertia += sqDist(x, cents[assign[i]])
	}
	return nil
}

// Predict returns the index of the nearest centroid.
func (km *KMeans) Predict(x []float64) int {
	best, bi := math.Inf(1), 0
	for c, cent := range km.Centroids {
		if dd := sqDist(x, cent); dd < best {
			best, bi = dd, c
		}
	}
	return bi
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
