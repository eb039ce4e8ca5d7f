package gpusim

// Preset device specifications mirroring the paper's testbed. The parameter
// values are drawn from public datasheets (geometry, clocks, bandwidth) and
// from published DVFS characterizations (voltage curves, power splits); they
// are calibrated so the simulated characterization reproduces the *shape* of
// the paper's figures, not the authors' absolute readings.

// V100Spec describes the NVIDIA Tesla V100 (SXM2, 32 GB HBM2) used for the
// paper's model training: one memory frequency (1107 MHz) and 196 core
// frequencies between 135 and 1597 MHz.
func V100Spec() Spec {
	return Spec{
		Name:   "NVIDIA V100",
		Vendor: NVIDIA,

		NumCU:      80,
		LanesPerCU: 64,
		ComputeEff: 0.74,

		ConcurrentItems: 80 * 2048,
		BWSaturateItems: 80 * 256,

		CoreFreqsMHz:   freqTable(135, 1597, 196),
		DefaultFreqMHz: nearestIn(freqTable(135, 1597, 196), 1297),
		MemFreqMHz:     1107,

		PeakBWGBs: 900,
		MemEff:    0.78,
		LLCBytes:  6 << 20,
		BWKnee:    0.36,
		BWKneeExp: 0.45,

		ThermalResKW: 0.15,
		TAmbientC:    30,
		TThrottleC:   88,

		VMin:  0.712,
		VMax:  1.093,
		VKnee: 0.50,
		VExp:  2.20,

		IdleW:        38,
		LeakCoeffW:   28,
		DynCoeffW:    1.30,
		ClockCoeffW:  20,
		MemCoeffWGBs: 0.075,
		BWMinUtil:    0.02,

		LaunchFixedS: 4e-6,
		LaunchCycles: 1600,
	}
}

// MI100Spec describes the AMD Instinct MI100. AMD exposes no default clock;
// the baseline is the frequency picked by the automatic performance level,
// which under load sits near the top of the range.
func MI100Spec() Spec {
	return Spec{
		Name:   "AMD MI100",
		Vendor: AMD,

		NumCU:      120,
		LanesPerCU: 64,
		// The paper's SYCL port is less tuned for CDNA than for Volta;
		// LiGen and Cronos both run slower and hotter on the MI100
		// (Figures 7 and 9), which the lower achieved issue rate captures.
		ComputeEff: 0.28,

		ConcurrentItems: 120 * 2560,
		BWSaturateItems: 120 * 256,

		CoreFreqsMHz: freqTable(300, 1502, 151),
		AutoFreqMHz:  nearestIn(freqTable(300, 1502, 151), 1402),
		MemFreqMHz:   1200,

		PeakBWGBs: 1229,
		MemEff:    0.60,
		LLCBytes:  8 << 20,
		BWKnee:    0.38,
		BWKneeExp: 0.50,

		ThermalResKW: 0.14,
		TAmbientC:    30,
		TThrottleC:   90,

		VMin:  0.75,
		VMax:  1.15,
		VKnee: 0.47,
		VExp:  2.00,

		IdleW:        45,
		LeakCoeffW:   30,
		DynCoeffW:    0.95,
		ClockCoeffW:  24,
		MemCoeffWGBs: 0.080,
		BWMinUtil:    0.02,

		LaunchFixedS: 6e-6,
		LaunchCycles: 2200,
	}
}

// A100Spec describes an NVIDIA A100 (SXM4, 40 GB HBM2e) — not part of the
// paper's testbed, but included to exercise the methodology's claimed
// architecture independence: the modeling pipeline only needs the device's
// frequency table and baseline clock. No program runs it; core's
// TestMethodologyPortableToUnseenDevice tests the paper's §6 portability
// claim with it.
//
//dsalint:ignore unreachable
func A100Spec() Spec {
	return Spec{
		Name:   "NVIDIA A100",
		Vendor: NVIDIA,

		NumCU:      108,
		LanesPerCU: 64,
		ComputeEff: 0.78,

		ConcurrentItems: 108 * 2048,
		BWSaturateItems: 108 * 256,

		CoreFreqsMHz:   freqTable(210, 1410, 81),
		DefaultFreqMHz: nearestIn(freqTable(210, 1410, 81), 1095),
		MemFreqMHz:     1215,

		PeakBWGBs: 1555,
		MemEff:    0.82,
		LLCBytes:  40 << 20,
		BWKnee:    0.34,
		BWKneeExp: 0.45,

		ThermalResKW: 0.13,
		TAmbientC:    30,
		TThrottleC:   90,

		VMin:  0.70,
		VMax:  1.05,
		VKnee: 0.52,
		VExp:  2.1,

		IdleW:        48,
		LeakCoeffW:   32,
		DynCoeffW:    1.45,
		ClockCoeffW:  26,
		MemCoeffWGBs: 0.06,
		BWMinUtil:    0.02,

		LaunchFixedS: 3.5e-6,
		LaunchCycles: 1500,
	}
}

// freqTable returns n evenly spaced integer frequencies from lo to hi MHz
// inclusive, ascending and deduplicated.
func freqTable(lo, hi, n int) []int {
	if n < 2 {
		return []int{lo}
	}
	out := make([]int, 0, n)
	step := float64(hi-lo) / float64(n-1)
	prev := lo - 1
	for i := 0; i < n; i++ {
		f := lo + int(float64(i)*step+0.5)
		if f > hi {
			f = hi
		}
		if f != prev {
			out = append(out, f)
			prev = f
		}
	}
	return out
}

// nearestIn returns the element of table closest to mhz.
func nearestIn(table []int, mhz int) int {
	best, bestd := table[0], abs(table[0]-mhz)
	for _, f := range table[1:] {
		if d := abs(f - mhz); d < bestd {
			best, bestd = f, d
		}
	}
	return best
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
