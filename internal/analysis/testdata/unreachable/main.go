// The one program of the unreachable fixture. What it reaches, directly or
// through a generic type's method, a closure handed to a generic function, a
// method value, a function handed to the standard library or an interface
// holding a type it names, is live.
package main

import (
	"os"

	"fixture/unreachable/lib"
)

func main() {
	s := lib.NewStack[int]()
	s.Push(1)
	lib.Each([]int{1, 2}, func(v int) { lib.Show(v) })
	emit := lib.Table{}.Row
	emit("a", 1)
	lib.SortDesc([]int{1, 2})
	lib.Show(lib.Total(lib.Counter{N: 1}, lib.Tallied{}))
	lib.Twice(func() { lib.Show(0) })
	_ = lib.Larger
	lib.Show(max(1, len(os.Args)))
}
