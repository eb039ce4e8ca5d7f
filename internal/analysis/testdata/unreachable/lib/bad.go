// Seeded unreachable code: no program runs these, and only a test calls
// OnlyTested.
package lib

func Unused() int { return 1 }

type Meter struct{ v float64 }

func (m *Meter) Bump(v float64) { m.v += v }

func OnlyTested() int { return 2 }
