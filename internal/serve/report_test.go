package serve

import (
	"math"
	"slices"
	"sort"
	"testing"

	"dsenergy/internal/xrand"
)

// percentile is the nearest-rank percentile of a sorted sample: the
// merged-sort reference that mergeResults' rank search must agree with.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// TestMergePercentilesMatchMergedSort splits random latency samples into
// 1–6 sorted runs, empty runs included, and checks mergeResults' p50, p99
// and max bit for bit against sorting the merged sample. The samples run
// from n = 0 and 1 to a few thousand values, drawn either from a few
// levels (heavy ties, down to one value repeated) or from a continuum.
func TestMergePercentilesMatchMergedSort(t *testing.T) {
	rng := xrand.New(11)
	for trial := 0; trial < 3000; trial++ {
		n := rng.Intn(3000)
		if trial < 40 {
			n = trial % 4 // 0, 1, 2 and 3 values
		}
		levels := 0 // continuous values
		if trial%2 == 0 {
			levels = 1 + rng.Intn(8)
		}
		sample := make([]float64, n)
		for i := range sample {
			if levels > 0 {
				sample[i] = float64(rng.Intn(levels)) * 0.0002
			} else {
				sample[i] = rng.Float64() * 0.01
			}
		}
		results := make([]*shardResult, 1+rng.Intn(6))
		for i := range results {
			results[i] = &shardResult{}
		}
		for _, v := range sample {
			sr := results[rng.Intn(len(results))]
			sr.latencies = append(sr.latencies, v)
		}
		for _, sr := range results {
			slices.Sort(sr.latencies)
		}
		rep := mergeResults(results)

		sort.Float64s(sample)
		var wantMax float64
		if n > 0 {
			wantMax = sample[n-1]
		}
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"p50", rep.P50LatencyS, percentile(sample, 0.50)},
			{"p99", rep.P99LatencyS, percentile(sample, 0.99)},
			{"max", rep.MaxLatencyS, wantMax},
		} {
			if math.Float64bits(c.got) != math.Float64bits(c.want) {
				t.Fatalf("trial %d (n=%d, %d runs, %d levels): %s = %v, merged sort gives %v",
					trial, n, len(results), levels, c.name, c.got, c.want)
			}
		}
	}
}
