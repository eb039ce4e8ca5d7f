// Package xrand provides a small, deterministic, splittable pseudo-random
// number generator used throughout the repository.
//
// Every stochastic component (measurement noise, synthetic ligand libraries,
// bootstrap sampling in the random forest, ...) draws from an xrand.Rand
// seeded from the experiment configuration, so repeated runs — including
// `go test` — are bit-for-bit reproducible. The generator is SplitMix64
// (Steele, Lea, Flood; OOPSLA 2014), which passes BigCrush and supports
// cheap stream splitting, unlike math/rand's global source.
package xrand

import "math"

// Rand is a deterministic pseudo-random number generator.
// The zero value is NOT ready for use; construct with New.
type Rand struct {
	state uint64
}

// New returns a generator seeded with seed. Two generators constructed with
// the same seed produce identical streams.
func New(seed uint64) *Rand {
	return &Rand{state: seed}
}

// Split derives an independent generator from r. The derived stream is
// decorrelated from r's continuation, which lets concurrent components
// (e.g. forest trees trained in parallel) own private generators while the
// overall program stays deterministic regardless of scheduling.
func (r *Rand) Split() *Rand {
	return New(r.Uint64() ^ 0x9e3779b97f4a7c15)
}

// SplitN derives n independent generators from r in one call — the
// pre-split idiom of the parallel execution engine: the streams are created
// in task order *before* any task is handed to a worker pool, so each task's
// randomness depends only on its index, never on scheduling.
func (r *Rand) SplitN(n int) []*Rand {
	out := make([]*Rand, n)
	for i := range out {
		out[i] = r.Split()
	}
	return out
}

// Uint64 returns the next value in the stream.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Norm returns a standard normal variate (mean 0, stddev 1) using the
// Box-Muller transform.
func (r *Rand) Norm() float64 {
	// Avoid log(0) by nudging u1 away from zero.
	u1 := r.Float64()
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
