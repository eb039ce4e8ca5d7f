// The one program of the unreachable fixture. What it reaches, directly or
// through a generic type's method, a closure handed to a generic function or
// a method value, is live.
package main

import "fixture/unreachable/lib"

func main() {
	s := lib.NewStack[int]()
	s.Push(1)
	lib.Each([]int{1, 2}, func(v int) { lib.Show(v) })
	emit := lib.Table{}.Row
	emit("a", 1)
}
