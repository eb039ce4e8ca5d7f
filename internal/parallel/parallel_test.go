package parallel

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"dsenergy/internal/xrand"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	if got := Workers(0); got < 1 {
		t.Errorf("Workers(0) = %d, want >= 1", got)
	}
	if got := Workers(-2); got != Workers(0) {
		t.Errorf("Workers(-2) = %d, want GOMAXPROCS default %d", got, Workers(0))
	}
}

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 100
		counts := make([]int64, n)
		err := ForEach(context.Background(), n, workers, func(_ context.Context, i int) error {
			atomic.AddInt64(&counts[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, max int64
	var mu sync.Mutex
	err := ForEach(context.Background(), 50, workers, func(_ context.Context, i int) error {
		c := atomic.AddInt64(&cur, 1)
		mu.Lock()
		if c > max {
			max = c
		}
		mu.Unlock()
		atomic.AddInt64(&cur, -1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if max > workers {
		t.Errorf("observed %d concurrent tasks, pool bound is %d", max, workers)
	}
}

func TestMapPreservesOrder(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		out, err := Map(context.Background(), 64, workers, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestMapMatchesSerialWithPreSplitStreams is the engine's core contract: with
// per-task streams split before the fork, the parallel result set is
// identical to the serial one however the pool schedules it.
func TestMapMatchesSerialWithPreSplitStreams(t *testing.T) {
	run := func(workers int) []uint64 {
		base := xrand.New(99)
		streams := base.SplitN(40)
		out, err := Map(context.Background(), len(streams), workers, func(_ context.Context, i int) (uint64, error) {
			var acc uint64
			for k := 0; k < 50; k++ {
				acc ^= streams[i].Uint64()
			}
			return acc, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(1)
	for _, workers := range []int{2, 8, 32} {
		if got := run(workers); !reflect.DeepEqual(got, serial) {
			t.Fatalf("workers=%d diverged from serial execution", workers)
		}
	}
}

func TestForEachFailFast(t *testing.T) {
	boom := errors.New("boom")
	var ran int64
	err := ForEach(context.Background(), 1000, 4, func(ctx context.Context, i int) error {
		atomic.AddInt64(&ran, 1)
		if i == 5 {
			return fmt.Errorf("task %d: %w", i, boom)
		}
		if i > 5 {
			// Hold every later task until the failure has cancelled the
			// pool, so the queue cannot drain before the cancellation is
			// seen, however the goroutines are scheduled.
			<-ctx.Done()
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if n := atomic.LoadInt64(&ran); n == 1000 {
		t.Error("cancellation did not stop any queued tasks")
	}
}

func TestForEachSerialErrorIsFirstIndex(t *testing.T) {
	// With one worker the engine is a plain loop: the error of the first
	// failing index is returned and later tasks never run.
	var ran []int
	err := ForEach(context.Background(), 10, 1, func(_ context.Context, i int) error {
		ran = append(ran, i)
		if i >= 3 {
			return fmt.Errorf("fail at %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "fail at 3" {
		t.Fatalf("err = %v", err)
	}
	if !reflect.DeepEqual(ran, []int{0, 1, 2, 3}) {
		t.Fatalf("ran %v", ran)
	}
}

func TestForEachCallerCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := ForEach(ctx, 8, 4, func(context.Context, int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestForEachChunkedCoversEveryIndexOnce(t *testing.T) {
	const n = 257 // prime: no grain divides it, so the tail chunk is short
	for _, workers := range []int{1, 2, 7, 64} {
		for _, grain := range []int{0, 1, 3, 64, 1000} {
			counts := make([]int64, n)
			err := ForEachChunked(context.Background(), n, workers, grain, func(_ context.Context, lo, hi int) error {
				if lo >= hi || lo < 0 || hi > n {
					return fmt.Errorf("bad chunk [%d,%d)", lo, hi)
				}
				if grain > 0 && hi-lo > grain {
					return fmt.Errorf("chunk [%d,%d) exceeds grain %d", lo, hi, grain)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt64(&counts[i], 1)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("workers=%d grain=%d: %v", workers, grain, err)
			}
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d grain=%d: index %d ran %d times", workers, grain, i, c)
				}
			}
		}
	}
}

// TestForEachChunkedMatchesForEach locks the rewiring contract: a body that
// derives its work purely from the indices produces the same bytes through
// ForEachChunked as through ForEach, for every worker count and grain.
func TestForEachChunkedMatchesForEach(t *testing.T) {
	const n = 120
	want := make([]uint64, n)
	if err := ForEach(context.Background(), n, 1, func(_ context.Context, i int) error {
		want[i] = xrand.New(uint64(i)).Uint64()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 16} {
		for _, grain := range []int{0, 1, 7, 200} {
			got := make([]uint64, n)
			err := ForEachChunked(context.Background(), n, workers, grain, func(_ context.Context, lo, hi int) error {
				for i := lo; i < hi; i++ {
					got[i] = xrand.New(uint64(i)).Uint64()
				}
				return nil
			})
			if err != nil {
				t.Fatalf("workers=%d grain=%d: %v", workers, grain, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d grain=%d diverged from ForEach", workers, grain)
			}
		}
	}
}

func TestForEachChunkedSerialErrorIsFirstChunk(t *testing.T) {
	// With one worker the chunks run in ascending order: the first failing
	// chunk's error is returned and later chunks never run.
	var ran []int
	err := ForEachChunked(context.Background(), 20, 1, 4, func(_ context.Context, lo, hi int) error {
		ran = append(ran, lo)
		if lo >= 8 {
			return fmt.Errorf("fail at %d", lo)
		}
		return nil
	})
	if err == nil || err.Error() != "fail at 8" {
		t.Fatalf("err = %v", err)
	}
	if !reflect.DeepEqual(ran, []int{0, 4, 8}) {
		t.Fatalf("ran chunks %v", ran)
	}
}

func TestForEachChunkedFailFast(t *testing.T) {
	boom := errors.New("boom")
	var ran int64
	err := ForEachChunked(context.Background(), 1000, 4, 1, func(_ context.Context, lo, hi int) error {
		atomic.AddInt64(&ran, 1)
		if lo == 5 {
			return fmt.Errorf("chunk %d: %w", lo, boom)
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if n := atomic.LoadInt64(&ran); n == 1000 {
		t.Error("cancellation did not stop any queued chunks")
	}
}

func TestForEachChunkedCallerCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := ForEachChunked(ctx, 8, 4, 2, func(context.Context, int, int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestForEachChunkedEmptyAndNilContext(t *testing.T) {
	if err := ForEachChunked(context.Background(), 0, 4, 8, nil); err != nil {
		t.Fatalf("n=0 must be a no-op, got %v", err)
	}
	err := ForEachChunked(nil, 3, 2, 1, func(context.Context, int, int) error { return nil }) //nolint:staticcheck
	if err != nil {
		t.Fatalf("nil context must default to Background, got %v", err)
	}
}

func TestForEachEmptyAndNilContext(t *testing.T) {
	if err := ForEach(context.Background(), 0, 4, nil); err != nil {
		t.Fatalf("n=0 must be a no-op, got %v", err)
	}
	err := ForEach(nil, 3, 2, func(context.Context, int) error { return nil }) //nolint:staticcheck
	if err != nil {
		t.Fatalf("nil context must default to Background, got %v", err)
	}
}
