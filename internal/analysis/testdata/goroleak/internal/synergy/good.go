// Clean counterparts: WaitGroup join, channel join, and the owner join of a
// persistent worker gang, whose Close waits on the WaitGroup field its
// workers Done in a defer (Run's wait on the per-dispatch field is not that
// join).
package synergy

import "sync"

func waitGroupJoin(jobs []int) {
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			process(j)
		}(j)
	}
	wg.Wait()
}

func channelJoin(jobs []int) int {
	done := make(chan int, len(jobs))
	for _, j := range jobs {
		go func(j int) {
			process(j)
			done <- j
		}(j)
	}
	sum := 0
	for range jobs {
		sum += <-done
	}
	return sum
}

type gang struct {
	wake   chan int
	done   sync.WaitGroup
	exited sync.WaitGroup
}

func newGang(workers int) *gang {
	g := &gang{wake: make(chan int)}
	g.exited.Add(workers)
	for w := 0; w < workers; w++ {
		go g.work()
	}
	return g
}

func (g *gang) work() {
	defer g.exited.Done()
	for range g.wake {
		g.done.Done()
	}
}

func (g *gang) Run(slabs int) {
	g.done.Add(slabs)
	for s := 0; s < slabs; s++ {
		g.wake <- s
	}
	g.done.Wait()
}

func (g *gang) Close() {
	close(g.wake)
	g.exited.Wait()
}
