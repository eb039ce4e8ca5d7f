// Package parallel is the repository's deterministic fork/join engine: a
// bounded worker pool whose output is byte-identical to serial execution
// regardless of scheduling.
//
// The engine owns no randomness of its own. Determinism is a contract with
// the caller: any stochastic state a task needs (an xrand stream, a fault
// stream, a cloned device) must be derived *before* the tasks are handed to
// the pool — typically by splitting one parent stream once per task, in task
// order. Each task then depends only on its own pre-split state, never on
// which goroutine runs it or in what order, and the engine writes every
// result into the slot of its task index. Running with one worker, sixteen
// workers, or under the race detector produces the same bytes.
//
// Error handling is fail-fast: the first task error cancels the shared
// context so in-flight and queued tasks can stop early, and the error
// recorded for the lowest task index is returned — on an unlucky schedule a
// lower-index task may have been cancelled before running, so callers that
// need deterministic *state* on failure must discard partial results (as
// synergy.SweepSet does) rather than interpret which index failed.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count request: a positive n is used as given,
// anything else selects GOMAXPROCS (one worker per schedulable CPU).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach runs fn(ctx, i) for every i in [0, n) on a pool of at most
// Workers(workers) goroutines and waits for all of them: ForEachChunked with
// one index per chunk.
func ForEach(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	return ForEachChunked(ctx, n, workers, 1, func(ctx context.Context, lo, _ int) error {
		return fn(ctx, lo)
	})
}

// ForEachChunked runs fn over contiguous half-open ranges [lo, hi) that tile
// [0, n), each at most grain indices wide, on a pool of at most
// Workers(workers) goroutines, and waits for all of them. A grain above one
// suits workloads whose per-index cost is small enough that task claiming and
// closure dispatch dominate, or whose bodies can amortize per-chunk scratch
// state across the indices of one range. grain <= 0 selects an automatic
// grain of about n/(4·workers) (at least 1), which keeps roughly four chunks
// per worker in flight for load balancing while dividing the per-index
// dispatch cost by the grain.
//
// fn must derive everything it needs from the indices it is handed, so every
// chunk decomposition — one chunk, n chunks, or anything between — produces
// the same bytes as the serial loop. With one worker (or a single chunk) the
// chunks run in ascending order on the calling goroutine: the serial
// reference the parallel schedule must be indistinguishable from.
//
// Error handling is fail-fast: the context passed to fn is cancelled as soon
// as any chunk fails (fn may ignore it or poll it to abort long work early),
// and the error recorded for the chunk with the lowest start index is
// returned. An unlucky schedule may cancel a lower chunk before it runs, so
// callers needing deterministic state on failure must discard partial
// results. If no chunk fails, a caller-side cancellation is returned.
func ForEachChunked(ctx context.Context, n, workers, grain int, fn func(ctx context.Context, lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if grain <= 0 {
		grain = n / (4 * w)
		if grain < 1 {
			grain = 1
		}
	}
	chunks := (n + grain - 1) / grain
	if w > chunks {
		w = chunks
	}
	if w == 1 {
		for lo := 0; lo < n; lo += grain {
			if err := ctx.Err(); err != nil {
				return err
			}
			hi := lo + grain
			if hi > n {
				hi = n
			}
			if err := fn(ctx, lo, hi); err != nil {
				return err
			}
		}
		return nil
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next  int64 // next unclaimed chunk number
		mu    sync.Mutex
		errLo = -1
		first error
		wg    sync.WaitGroup
	)
	record := func(lo int, err error) {
		mu.Lock()
		if errLo < 0 || lo < errLo {
			errLo, first = lo, err
		}
		mu.Unlock()
		cancel()
	}
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c := int(atomic.AddInt64(&next, 1)) - 1
				if c >= chunks {
					return
				}
				if cctx.Err() != nil {
					// Cancelled by an earlier failure (or the caller): stop
					// claiming work without recording — a cancellation is not
					// this chunk's error.
					return
				}
				lo := c * grain
				hi := lo + grain
				if hi > n {
					hi = n
				}
				if err := fn(cctx, lo, hi); err != nil {
					record(lo, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if first != nil {
		return first
	}
	// No chunk failed; surface a caller-side cancellation if there was one.
	return ctx.Err()
}

// Map runs fn over [0, n) like ForEach and collects the results in task
// order: out[i] is fn's value for index i, wherever and whenever it ran.
func Map[T any](ctx context.Context, n, workers int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(ctx, n, workers, func(ctx context.Context, i int) error {
		v, err := fn(ctx, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
