package dsenergy_test

import (
	"fmt"
	"log"

	"dsenergy/internal/cronos"
	"dsenergy/internal/gpusim"
	"dsenergy/internal/synergy"
)

// Example demonstrates the minimal measurement flow: open the simulated
// testbed and compare a workload's energy at two clocks.
func Example() {
	tb, err := synergy.NewPlatform(42, gpusim.V100Spec(), gpusim.MI100Spec())
	if err != nil {
		log.Fatal(err)
	}
	v100 := tb.Queues()[0]
	w, err := cronos.NewWorkload(160, 64, 64, 10)
	if err != nil {
		log.Fatal(err)
	}
	base, _ := synergy.MeasureAt(v100, w, v100.BaselineFreqMHz(), 5)
	low, _ := synergy.MeasureAt(v100, w, v100.Spec().NearestFreqMHz(900), 5)
	fmt.Printf("down-clocking a memory-bound stencil saves energy: %v\n",
		low.EnergyJ < base.EnergyJ)
	fmt.Printf("while losing under 2%% performance: %v\n",
		low.TimeS < base.TimeS*1.02)
	// Output:
	// down-clocking a memory-bound stencil saves energy: true
	// while losing under 2% performance: true
}
