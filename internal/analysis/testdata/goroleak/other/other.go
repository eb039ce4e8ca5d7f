// Packages outside goroleak's policed list are not policed: the same
// fire-and-forget shape stays quiet here.
package other

func fireAndForget(jobs []int) {
	for _, j := range jobs {
		go use(j)
	}
}

func use(int) {}
