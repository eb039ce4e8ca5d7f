// Quickstart: open the simulated testbed, run a LiGen workload at three core
// frequencies, and print the energy/performance trade-off — the smallest
// possible end-to-end use of the library.
package main

import (
	"fmt"
	"log"

	"dsenergy/internal/gpusim"
	"dsenergy/internal/ligen"
	"dsenergy/internal/synergy"
)

func main() {
	tb, err := synergy.NewPlatform(42, gpusim.V100Spec(), gpusim.MI100Spec())
	if err != nil {
		log.Fatal(err)
	}
	v100 := tb.Queues()[0]
	fmt.Printf("device: %s, %d selectable core frequencies (%d-%d MHz), baseline %d MHz\n",
		v100.Spec().Name, len(v100.SupportedFreqsMHz()),
		v100.Spec().FMinMHz(), v100.Spec().FMaxMHz(), v100.BaselineFreqMHz())

	w, err := ligen.NewWorkload(ligen.Input{Ligands: 1024, Atoms: 63, Fragments: 8})
	if err != nil {
		log.Fatal(err)
	}

	base := v100.BaselineFreqMHz()
	low := v100.Spec().NearestFreqMHz(base * 3 / 4)
	high := v100.Spec().FMaxMHz()

	fmt.Printf("\n%-14s %12s %12s %10s\n", "frequency", "time (s)", "energy (J)", "avg W")
	var ref synergy.Measurement
	for i, f := range []int{low, base, high} {
		m, err := synergy.MeasureAt(v100, w, f, 5)
		if err != nil {
			log.Fatal(err)
		}
		if i == 1 {
			ref = m
		}
		fmt.Printf("%9d MHz %12.5f %12.3f %10.1f\n", m.FreqMHz, m.TimeS, m.EnergyJ, m.EnergyJ/m.TimeS)
	}

	mLow, _ := synergy.MeasureAt(v100, w, low, 5)
	mHigh, _ := synergy.MeasureAt(v100, w, high, 5)
	fmt.Printf("\ndown-clocking to %d MHz: %+.1f%% time, %+.1f%% energy\n",
		low, (mLow.TimeS/ref.TimeS-1)*100, (mLow.EnergyJ/ref.EnergyJ-1)*100)
	fmt.Printf("up-clocking to %d MHz:  %+.1f%% time, %+.1f%% energy\n",
		high, (mHigh.TimeS/ref.TimeS-1)*100, (mHigh.EnergyJ/ref.EnergyJ-1)*100)
}
