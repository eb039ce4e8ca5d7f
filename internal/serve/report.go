package serve

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
)

// VersionCount attributes completed responses to one published model
// version — the audit trail that every answer came from exactly one version.
type VersionCount struct {
	App       string
	Device    string
	Version   int
	Responses int
}

// Report is the SLO accounting of one service campaign. Every field is
// deterministic for a fixed Config: shards are merged in shard order, and
// the latency percentiles are order statistics of all shards' latencies,
// read from each shard's sorted run.
type Report struct {
	Shards int

	// Admission.
	Submitted        int
	Completed        int
	Rejected         int
	RejectedNoModel  int
	RejectedBadShape int

	// Request path.
	CacheHits int
	Coalesced int
	Misses    int

	// Batching.
	Batches          int
	MaxBatchLen      int
	MeanBatchFlights float64

	// Hot-reload.
	Reloads         int
	ReloadsRejected int

	// Advisory outcomes.
	Escalations    int
	OnPareto       int
	PredEnergyJ    float64
	PredEnergyMaxJ float64

	// Latency and throughput.
	P50LatencyS   float64
	P99LatencyS   float64
	MaxLatencyS   float64
	MakespanS     float64
	ThroughputRPS float64

	PerVersion []VersionCount
}

// CacheHitRate is the fraction of answered requests served from the LRU.
func (r *Report) CacheHitRate() float64 {
	if r.Completed == 0 {
		return 0
	}
	return float64(r.CacheHits) / float64(r.Completed)
}

// PredEnergySavedFrac is the predicted energy saving of the recommendations
// against always running at the fastest candidate clock.
func (r *Report) PredEnergySavedFrac() float64 {
	if r.PredEnergyMaxJ <= 0 {
		return 0
	}
	return 1 - r.PredEnergyJ/r.PredEnergyMaxJ
}

// nearestRank is the 0-based index of the nearest-rank q-quantile in a
// sorted sample of n > 0 values.
func nearestRank(n int, q float64) int {
	i := int(q*float64(n)+0.999999) - 1
	return max(0, min(i, n-1))
}

// rankValue returns the value of 0-based rank k in the union of the sorted
// runs, without merging them: it is the least element whose count of
// elements at or below it, over all runs, exceeds k. A binary search in
// each run finds that run's least such element, each probe counting by a
// binary search per run. k must be below the runs' total length.
func rankValue(runs [][]float64, k int) float64 {
	atOrBelow := func(v float64) int {
		c := 0
		for _, run := range runs {
			c += sort.Search(len(run), func(i int) bool { return run[i] > v })
		}
		return c
	}
	best := math.Inf(1)
	for _, run := range runs {
		if j := sort.Search(len(run), func(j int) bool { return atOrBelow(run[j]) > k }); j < len(run) {
			best = min(best, run[j])
		}
	}
	return best
}

// mergeResults folds the per-shard accounting, in shard order, into one
// report. Each shard's latencies arrive sorted.
func mergeResults(results []*shardResult) *Report {
	r := &Report{Shards: len(results)}
	runs := make([][]float64, len(results))
	n := 0
	var batchedFlights int
	for i, sr := range results {
		r.Submitted += sr.submitted
		r.Completed += sr.completed
		r.Rejected += sr.rejected
		r.RejectedNoModel += sr.rejectedNoModel
		r.RejectedBadShape += sr.rejectedBadShape
		r.CacheHits += sr.cacheHits
		r.Coalesced += sr.coalesced
		r.Misses += sr.misses
		r.Batches += sr.batches
		batchedFlights += sr.batchedFlights
		if sr.maxBatchLen > r.MaxBatchLen {
			r.MaxBatchLen = sr.maxBatchLen
		}
		r.Reloads += sr.reloads
		r.ReloadsRejected += sr.reloadsRejected
		r.Escalations += sr.escalations
		r.OnPareto += sr.onPareto
		r.PredEnergyJ += sr.predEnergyJ
		r.PredEnergyMaxJ += sr.predEnergyMaxJ
		if sr.lastDoneS > r.MakespanS {
			r.MakespanS = sr.lastDoneS
		}
		runs[i], n = sr.latencies, n+len(sr.latencies)
		if k := len(sr.latencies); k > 0 {
			r.MaxLatencyS = max(r.MaxLatencyS, sr.latencies[k-1])
		}
		r.PerVersion = append(r.PerVersion, sr.versions...)
	}
	if r.Batches > 0 {
		r.MeanBatchFlights = float64(batchedFlights) / float64(r.Batches)
	}
	if n > 0 {
		r.P50LatencyS = rankValue(runs, nearestRank(n, 0.50))
		r.P99LatencyS = rankValue(runs, nearestRank(n, 0.99))
	}
	if r.MakespanS > 0 {
		r.ThroughputRPS = float64(r.Completed) / r.MakespanS
	}
	// Sort the shards' version slots by (device, app, version) and sum the
	// slots of one version that shards sharing a device name each hold.
	slices.SortFunc(r.PerVersion, func(a, b VersionCount) int {
		if c := strings.Compare(a.Device, b.Device); c != 0 {
			return c
		}
		if c := strings.Compare(a.App, b.App); c != 0 {
			return c
		}
		return a.Version - b.Version
	})
	pv := r.PerVersion[:0]
	for _, v := range r.PerVersion {
		if k := len(pv) - 1; k >= 0 && pv[k].Device == v.Device && pv[k].App == v.App && pv[k].Version == v.Version {
			pv[k].Responses += v.Responses
			continue
		}
		pv = append(pv, v)
	}
	r.PerVersion = pv
	return r
}

// WriteText renders the report deterministically.
func (r *Report) WriteText(w io.Writer) error {
	p := func(format string, args ...any) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	if err := p("shards=%d\n", r.Shards); err != nil {
		return err
	}
	if err := p("requests: submitted=%d completed=%d rejected=%d (no-model=%d bad-shape=%d)\n",
		r.Submitted, r.Completed, r.Rejected, r.RejectedNoModel, r.RejectedBadShape); err != nil {
		return err
	}
	if err := p("path: cache-hits=%d coalesced=%d misses=%d hit-rate=%.2f%%\n",
		r.CacheHits, r.Coalesced, r.Misses, 100*r.CacheHitRate()); err != nil {
		return err
	}
	if err := p("batching: batches=%d mean-flights=%.2f max-flights=%d\n",
		r.Batches, r.MeanBatchFlights, r.MaxBatchLen); err != nil {
		return err
	}
	if err := p("reloads: published=%d rejected=%d\n", r.Reloads, r.ReloadsRejected); err != nil {
		return err
	}
	if err := p("advice: on-pareto=%d escalated=%d pred-energy=%.1fJ vs-maxfreq=%.1fJ saved=%.2f%%\n",
		r.OnPareto, r.Escalations, r.PredEnergyJ, r.PredEnergyMaxJ,
		100*r.PredEnergySavedFrac()); err != nil {
		return err
	}
	if err := p("latency: p50=%.6fs p99=%.6fs max=%.6fs makespan=%.3fs throughput=%.0frps\n",
		r.P50LatencyS, r.P99LatencyS, r.MaxLatencyS, r.MakespanS, r.ThroughputRPS); err != nil {
		return err
	}
	for _, v := range r.PerVersion {
		if err := p("version %s/%s v%d responses=%d\n",
			v.Device, v.App, v.Version, v.Responses); err != nil {
			return err
		}
	}
	return nil
}
