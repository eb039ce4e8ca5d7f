package ml

import "math"

// mapeRelEps sets the near-zero guard of MAPE: targets whose magnitude is
// at most mapeRelEps times the largest target magnitude are skipped. The
// threshold is relative, so it adapts to the target scale (speedups near 1,
// energies in joules) while staying far below any physically meaningful
// value — for the repo's datasets it never excludes a real sample.
const mapeRelEps = 1e-12

// MAPE returns the mean absolute percentage error, the accuracy metric of
// the paper's Figure 13 (expressed as a fraction, not percent).
//
// Division by the true value makes the metric undefined at zero targets and
// explosive near them (a zero-energy corner config would turn one sample
// into an Inf/NaN or astronomically large score that swamps the mean). The
// policy here is skip, not epsilon-clamp: targets with |y| <= mapeRelEps ×
// max|y| are excluded from the mean, matching the spirit of scikit-learn's
// clamping without letting a degenerate sample dominate. All-zero targets
// yield 0 by convention.
func MAPE(yTrue, yPred []float64) float64 {
	var maxAbs float64
	for _, v := range yTrue {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	thresh := mapeRelEps * maxAbs
	var sum float64
	var n int
	for i := range yTrue {
		if math.Abs(yTrue[i]) <= thresh {
			continue
		}
		sum += math.Abs((yTrue[i] - yPred[i]) / yTrue[i])
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
