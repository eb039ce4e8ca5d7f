// Clean counterparts: the standing idiom — collect keys, sort, range the
// sorted slice — and map ranges that only aggregate without emitting.
package fixture

import (
	"fmt"
	"io"
	"sort"
)

func printPlanSorted(w io.Writer, plan map[string]int) {
	keys := make([]string, 0, len(plan))
	for k := range plan {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s -> %d MHz\n", k, plan[k]) // slice order: canonical
	}
}

func countEntries(w io.Writer, plan map[string]int) {
	n := 0
	for range plan {
		n++ // aggregation without emission is order-invariant
	}
	fmt.Fprintf(w, "%d entries\n", n)
}

func tally(sum *int, v int) { *sum += v }

// report has tally's signature but is only ever called directly, so a call
// through a variable holding tally cannot reach it.
func report(sum *int, v int) { fmt.Println(*sum, v) }

func sumAll(m map[string]int) int {
	sum := 0
	apply := tally
	for _, v := range m {
		apply(&sum, v)
	}
	report(&sum, len(m))
	return sum
}
