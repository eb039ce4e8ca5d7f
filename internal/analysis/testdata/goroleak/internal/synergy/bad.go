// Seeded goroleak violations inside a policed package path: workers launched
// with no join in the enclosing function, workers launched as methods of an
// owner whose methods never wait on a WaitGroup field (Close only stops
// them; Drain waits on a WaitGroup the launch never touched), and a worker
// gang whose Close lost its exit join (Run still waits on its per-dispatch
// WaitGroup, which the workers' exit does not release).
package synergy

import "sync"

func fireAndForget(jobs []int) {
	for _, j := range jobs {
		go process(j) // never joined
	}
}

func process(int) {}

type leakyPool struct{ jobs chan int }

func newLeakyPool(workers int) *leakyPool {
	p := &leakyPool{jobs: make(chan int)}
	for w := 0; w < workers; w++ {
		go p.work() // nothing joins the workers
	}
	return p
}

func (p *leakyPool) work() {
	for range p.jobs {
	}
}

func (p *leakyPool) Close() { close(p.jobs) }

func (p *leakyPool) Drain() {
	var wg sync.WaitGroup
	wg.Wait()
}

type brokenGang struct {
	wake   chan int
	done   sync.WaitGroup
	exited sync.WaitGroup
}

func newBrokenGang(workers int) *brokenGang {
	g := &brokenGang{wake: make(chan int)}
	g.exited.Add(workers)
	for w := 0; w < workers; w++ {
		go g.work() // nothing waits on exited
	}
	return g
}

func (g *brokenGang) work() {
	defer g.exited.Done()
	for range g.wake {
		g.done.Done()
	}
}

func (g *brokenGang) Run(slabs int) {
	g.done.Add(slabs)
	for s := 0; s < slabs; s++ {
		g.wake <- s
	}
	g.done.Wait()
}

func (g *brokenGang) Close() { close(g.wake) }
