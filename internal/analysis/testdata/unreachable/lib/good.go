// Clean counterparts: code the program reaches through constructs the call
// graph must follow, and roots it has no edge to.
package lib

import "fmt"

// Stack is a generic type: main pushes onto a Stack[int].
type Stack[T any] struct{ items []T }

func NewStack[T any]() *Stack[T] { return &Stack[T]{} }

func (s *Stack[T]) Push(v T) {
	s.items = append(s.items, v)
	s.trim()
}

// trim is reached only through the generic type's method.
func (s *Stack[T]) trim() { s.items = s.items[:len(s.items):len(s.items)] }

// Each runs fn on every element: main hands it a closure.
func Each[T any](xs []T, fn func(T)) {
	for _, x := range xs {
		fn(x)
	}
}

// Show is called only from inside the closure main hands to Each.
func Show(v int) { fmt.Println(v) }

type Table struct{}

// Row is called only through a method value.
func (Table) Row(k string, v int) { fmt.Println(k, v) }

// Scale is a package-level variable: the function it holds is a root.
var Scale = double

func double(v float64) float64 { return 2 * v }

// Celsius satisfies fmt.Stringer, which the standard library calls with no
// edge in the graph.
type Celsius float64

func (c Celsius) String() string { return fmt.Sprintf("%g°C", float64(c)) }

// legacy is unreached but suppressed.
//
//dsalint:ignore unreachable
func legacy() {}
