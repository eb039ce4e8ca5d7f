package serve

import "testing"

var benchMHz int // defeats dead-code elimination in BenchmarkAdvise

// BenchmarkServeCampaign drives the full two-shard campaign — open- and
// closed-loop load, a hot-reload and a rejected corrupt upload — per
// iteration, reporting service throughput as answered requests per second
// of wall time (model training is excluded from the timer).
func BenchmarkServeCampaign(b *testing.B) {
	cfg := testConfig(b, 0, nil)
	served := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		served += rep.Completed
	}
	b.ReportMetric(float64(served)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkAdvise measures one uncached advisory query end to end — lookup,
// curve prediction and the deadline decision — the service's cache-miss
// hot path, and reports its allocations (none on this menu).
func BenchmarkAdvise(b *testing.B) {
	reg := NewRegistry("v100")
	if _, err := reg.Publish("ligen", testPayload(b, 1)); err != nil {
		b.Fatal(err)
	}
	feats := testShapeFeatures[2]
	deadline := 2 * feats[0] * feats[1] * feats[2] / 4e6
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := reg.Advise("ligen", feats, deadline, testFreqs)
		if err != nil {
			b.Fatal(err)
		}
		benchMHz = resp.RecommendedMHz
	}
}
