// Seeded goroleak violations inside a policed package path: workers launched
// with no join in the enclosing function, and workers launched as methods of
// an owner whose methods never wait on a WaitGroup field (Close only stops
// them; Drain waits on a WaitGroup the launch never touched).
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
