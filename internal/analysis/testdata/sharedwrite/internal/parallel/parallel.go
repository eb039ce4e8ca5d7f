// Mimics the bounded worker pool: fn runs once per index with the task
// index as its final parameter, which is the engine's partitioning key.
package parallel

func ForEach(n, workers int, fn func(i int) error) error {
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

func Map[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	for i := 0; i < n; i++ {
		v, err := fn(i)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func ForEachChunked(n, workers, grain int, fn func(lo, hi int) error) error {
	for lo := 0; lo < n; lo += grain {
		hi := lo + grain
		if hi > n {
			hi = n
		}
		if err := fn(lo, hi); err != nil {
			return err
		}
	}
	return nil
}

// Gang mimics the persistent slab gang: Run hands body a slab number and its
// [lo, hi) range, the engine's partitioning keys.
type Gang struct{}

func (g *Gang) Run(n int, body func(slab, lo, hi int)) int {
	body(0, 0, n)
	return 1
}
