package parallel

import "sync"

// Gang is a fixed set of worker goroutines that one owner starts once and
// dispatches to many times: the engine for a solver whose step makes a dozen
// short fan-outs, where starting a goroutine and a closure per slab per
// dispatch would cost more than the slab work. A Gang has no context, no
// error return and no dynamic claiming — Run hands each worker one static
// slab; ForEachChunked stays the engine for one-shot fan-outs.
//
// Run and Close belong to the owner: they must not be called concurrently
// with each other, and Run must not be called after Close.
type Gang struct {
	workers int
	wake    chan int // slab numbers handed to the workers by Run

	// The dispatch in flight, written by Run before the first wake and read
	// by the workers after theirs.
	n, chunk int
	body     func(slab, lo, hi int)

	done   sync.WaitGroup // slabs of the dispatch in flight still running
	exited sync.WaitGroup // workers not yet returned
	stop   sync.Once
}

// NewGang starts a gang of Workers(workers) members: Workers(workers)−1
// worker goroutines plus the caller of Run, which always runs slab 0.
func NewGang(workers int) *Gang {
	g := &Gang{workers: Workers(workers), wake: make(chan int)}
	g.exited.Add(g.workers - 1)
	for w := 1; w < g.workers; w++ {
		go g.work()
	}
	return g
}

// work runs the slabs handed to this worker until Close.
func (g *Gang) work() {
	defer g.exited.Done()
	for slab := range g.wake {
		lo := slab * g.chunk
		g.body(slab, lo, min(lo+g.chunk, g.n))
		g.done.Done()
	}
}

// Run splits [0, n) into at most one contiguous slab per gang member, each
// ceil(n/members) indices wide (the last one shorter), calls body(slab, lo,
// hi) once per slab — slab 0 on the calling goroutine, the rest on the
// workers — and returns the slab count once every slab has finished. The
// partition depends only on n and the gang size, so a body that keeps
// per-slab partials in slots indexed by slab can fold them in slab order
// after Run for a schedule-independent result. With one member, or n <= 1,
// Run calls body(0, 0, n) and returns 1. Run allocates nothing.
func (g *Gang) Run(n int, body func(slab, lo, hi int)) int {
	w := min(g.workers, n)
	if w <= 1 {
		body(0, 0, n)
		return 1
	}
	chunk := (n + w - 1) / w
	slabs := (n + chunk - 1) / chunk
	g.n, g.chunk, g.body = n, chunk, body
	g.done.Add(slabs - 1)
	for slab := 1; slab < slabs; slab++ {
		g.wake <- slab
	}
	body(0, 0, chunk)
	g.done.Wait()
	g.body = nil
	return slabs
}

// Close stops the workers and waits for them to exit. It is safe to call
// more than once.
func (g *Gang) Close() {
	g.stop.Do(func() { close(g.wake) })
	g.exited.Wait()
}
