package sched

import (
	"fmt"
	"slices"
	"testing"

	"dsenergy/internal/faults"
	"dsenergy/internal/gpusim"
)

var benchFreq int // defeats dead-code elimination in BenchmarkDecide

// BenchmarkScheduleStream drives the full admit-decide-dispatch-complete loop
// over a 96-job mixed stream on a fresh fault-free 4-device cluster per
// iteration, reporting scheduler throughput as admitted jobs per second of
// wall time (the cluster build is excluded from the timer). The repeat arm
// draws its jobs from the 9 ladder shapes, so the shape table predicts each
// shape once; the no-repeat arm nudges every job's features by its ID, so no
// shape repeats and every admission predicts.
func BenchmarkScheduleStream(b *testing.B) {
	models := testModels(b)
	freqs := testFreqs(b)
	jobs, err := GenerateStream(StreamConfig{Seed: 40, Jobs: 96}, gpusim.V100Spec())
	if err != nil {
		b.Fatal(err)
	}
	unique := slices.Clone(jobs)
	seen := make(map[string]bool, len(unique))
	for i := range unique {
		j := &unique[i]
		if j.App == AppLiGen {
			j.LiGen.Ligands += i
		} else {
			j.Grid[1] += i / 10
			j.Grid[2] += i % 10
		}
		key := fmt.Sprint(j.App, j.Features())
		if seen[key] {
			b.Fatalf("job %d repeats shape %s", i, key)
		}
		seen[key] = true
	}
	for _, arm := range []struct {
		name string
		jobs []Job
	}{{"repeat", jobs}, {"no-repeat", unique}} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			admitted := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cl := testCluster(b, 41, 4, faults.Plan{})
				b.StartTimer()
				s, err := New(cl, Config{Freqs: freqs, Models: models})
				if err != nil {
					b.Fatal(err)
				}
				r, err := s.Run(arm.jobs)
				if err != nil {
					b.Fatal(err)
				}
				admitted += r.Admitted
			}
			b.ReportMetric(float64(admitted)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}

// BenchmarkDecide measures one frequency decision over a realistic candidate
// curve — the scheduler's per-dispatch hot path.
func BenchmarkDecide(b *testing.B) {
	models := testModels(b)
	freqs := testFreqs(b)
	jobs, err := GenerateStream(StreamConfig{Seed: 42, Jobs: 1}, gpusim.V100Spec())
	if err != nil {
		b.Fatal(err)
	}
	curve, err := models.curves(jobs[0], freqs)
	if err != nil {
		b.Fatal(err)
	}
	static := gpusim.V100Spec().BaselineFreqMHz()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, _ := decide(PolicyModel, static, curve, jobs[0].DeadlineS, 0, 0, 0.25)
		benchFreq = p.FreqMHz
	}
}
