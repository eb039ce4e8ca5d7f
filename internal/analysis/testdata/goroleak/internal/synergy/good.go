// Clean counterparts: WaitGroup join, channel join, and the owner join of a
// persistent worker gang, whose Close waits on a WaitGroup field.
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
	}
}

func (g *gang) Close() {
	close(g.wake)
	g.exited.Wait()
}
