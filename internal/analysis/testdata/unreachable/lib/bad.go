// Seeded unreachable code: no program runs these, and only tests call
// OnlyTested, Gauge.Read and Reset.
package lib

func Unused() int { return 1 }

type Meter struct{ v float64 }

func (m *Meter) Bump(v float64) { m.v += v }

func OnlyTested() int { return 2 }

// Gauge is a Reader, but only lib_test.go makes one: main's calls through
// Reader never reach it.
type Gauge struct{}

func (Gauge) Read() int { return 3 }

// Reset is called only inside the func() literal lib_test.go hands to Twice:
// that literal is no callee of Twice's fn() call, which main reaches.
func Reset() {}

// Larger is a func(int, int) int main takes the address of but never calls:
// the builtin max main calls has that signature at its call, but is no call
// through a function value.
func Larger(a, b int) int { return max(a, b) }
