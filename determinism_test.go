package dsenergy_test

// Seed-determinism regression test: the dynamic guarantee behind what the
// dsalint maporder and randsource passes enforce statically. Two
// characterization campaigns from identical seeds must serialize to
// byte-identical datasets — any math/rand leak, map-ordered accumulation or
// unjoined goroutine racing the measurement path shows up here as a diff.

import (
	"bytes"
	"fmt"
	"testing"

	"dsenergy/internal/cluster"
	"dsenergy/internal/core"
	"dsenergy/internal/cronos"
	"dsenergy/internal/experiments"
	"dsenergy/internal/faults"
	"dsenergy/internal/gpusim"
	"dsenergy/internal/ligen"
	"dsenergy/internal/ml"
	"dsenergy/internal/obs"
	"dsenergy/internal/sched"
	"dsenergy/internal/synergy"
)

// characterize runs one small LiGen + Cronos characterization campaign on a
// freshly seeded testbed and returns both datasets serialized to CSV. The
// workers count feeds BuildConfig.Workers (0 = GOMAXPROCS, 1 = serial) and
// must never change the bytes.
func characterize(t *testing.T, seed uint64, workers int) []byte {
	t.Helper()
	tb, err := synergy.NewPlatform(seed, gpusim.V100Spec(), gpusim.MI100Spec())
	if err != nil {
		t.Fatal(err)
	}
	v100 := tb.Queues()[0]
	freqs := []int{832, 1087, 1297}

	var buf bytes.Buffer

	var ligenWLs []core.FeaturedWorkload
	for _, in := range []ligen.Input{
		{Ligands: 256, Atoms: 31, Fragments: 4},
		{Ligands: 512, Atoms: 63, Fragments: 8},
	} {
		w, err := ligen.NewWorkload(in)
		if err != nil {
			t.Fatal(err)
		}
		ligenWLs = append(ligenWLs, core.FeaturedWorkload{
			Workload: w,
			Features: []float64{float64(in.Ligands), float64(in.Atoms), float64(in.Fragments)},
		})
	}
	ds, err := core.BuildDataset(v100, core.LiGenSchema(), ligenWLs,
		core.BuildConfig{Freqs: freqs, Reps: 2, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}

	var cronosWLs []core.FeaturedWorkload
	for _, g := range [][3]int{{10, 4, 4}, {16, 8, 8}} {
		w, err := cronos.NewWorkload(g[0], g[1], g[2], 3)
		if err != nil {
			t.Fatal(err)
		}
		cronosWLs = append(cronosWLs, core.FeaturedWorkload{
			Workload: w,
			Features: []float64{float64(g[0]), float64(g[1]), float64(g[2])},
		})
	}
	ds, err = core.BuildDataset(v100, core.CronosSchema(), cronosWLs,
		core.BuildConfig{Freqs: freqs, Reps: 2, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// resilientRun executes one fault-injected cluster campaign (both apps) and
// serializes every Result field, resilience accounting included.
func resilientRun(t *testing.T, clusterSeed, faultSeed uint64) []byte {
	t.Helper()
	c, err := cluster.New(clusterSeed, gpusim.V100Spec(), 4, cluster.DefaultInterconnect())
	if err != nil {
		t.Fatal(err)
	}
	plan := faults.Plan{
		Seed:          faultSeed,
		TransientProb: 0.02,
		Failures:      []faults.DeviceFailure{{Device: 3, AfterSubmits: 9}},
		Throttles:     []faults.Throttle{{Device: 1, FromSubmit: 5, ToSubmit: 20, CapMHz: 1000}},
	}
	if err := c.SetFaultPlan(plan, cluster.DefaultResilienceConfig()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	lr, err := c.ScreenLiGen(ligen.Input{Ligands: 1024, Atoms: 63, Fragments: 8})
	if err != nil {
		t.Fatal(err)
	}
	cr, err := c.RunCronos(32, 16, 16, 12)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&buf, "%+v\n%+v\n", lr, cr)
	return buf.Bytes()
}

// scheduleRun trains the two small raw models, generates a job stream and
// executes it with the deadline-aware scheduler on a fault-injected cluster,
// returning the SLO report plus the full observability export (metrics and
// trace) as bytes.
func scheduleRun(t *testing.T, seed uint64) []byte {
	t.Helper()
	tb, err := synergy.NewPlatform(seed, gpusim.V100Spec(), gpusim.MI100Spec())
	if err != nil {
		t.Fatal(err)
	}
	v100 := tb.Queues()[0]
	freqs := []int{832, 1087, 1297, 1597}

	train := func(schema core.Schema, wls []core.FeaturedWorkload, modelSeed uint64) *core.Model {
		ds, err := core.BuildDataset(v100, schema, wls, core.BuildConfig{Freqs: freqs, Reps: 1})
		if err != nil {
			t.Fatal(err)
		}
		m, err := core.Train(ds, ml.Spec{Algorithm: "forest"}, modelSeed)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	var ligenWLs []core.FeaturedWorkload
	for _, in := range []ligen.Input{
		{Ligands: 1024, Atoms: 63, Fragments: 8},
		{Ligands: 4096, Atoms: 89, Fragments: 8},
	} {
		w, err := ligen.NewWorkload(in)
		if err != nil {
			t.Fatal(err)
		}
		ligenWLs = append(ligenWLs, core.FeaturedWorkload{
			Workload: w,
			Features: []float64{float64(in.Ligands), float64(in.Atoms), float64(in.Fragments)},
		})
	}
	var cronosWLs []core.FeaturedWorkload
	for _, g := range []struct {
		grid  [3]int
		steps int
	}{
		{[3]int{128, 64, 64}, 8},
		{[3]int{192, 96, 96}, 10},
	} {
		w, err := cronos.NewWorkload(g.grid[0], g.grid[1], g.grid[2], g.steps)
		if err != nil {
			t.Fatal(err)
		}
		cronosWLs = append(cronosWLs, core.FeaturedWorkload{
			Workload: w,
			Features: []float64{float64(g.grid[0]), float64(g.grid[1]), float64(g.grid[2])},
		})
	}
	models := &sched.ModelSet{
		LiGen:  train(core.LiGenSchema(), ligenWLs, seed+1),
		Cronos: train(core.CronosSchema(), cronosWLs, seed+2),
	}

	jobs, err := sched.GenerateStream(sched.StreamConfig{Seed: seed + 3, Jobs: 24}, gpusim.V100Spec())
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(seed, gpusim.V100Spec(), 2, cluster.DefaultInterconnect())
	if err != nil {
		t.Fatal(err)
	}
	plan := faults.Plan{
		Seed:          seed + 4,
		TransientProb: 0.05,
		Failures:      []faults.DeviceFailure{{Device: 1, AfterSubmits: 12}},
		Throttles:     []faults.Throttle{{Device: 0, FromSubmit: 4, ToSubmit: 30, CapMHz: 1005}},
	}
	if err := c.SetFaultPlan(plan, cluster.DefaultResilienceConfig()); err != nil {
		t.Fatal(err)
	}
	o := obs.NewObserver()
	c.SetObserver(o)
	s, err := sched.New(c, sched.Config{Freqs: freqs, Models: models, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if err := o.WriteMetricsText(&buf); err != nil {
		t.Fatal(err)
	}
	if err := o.WriteTraceText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSchedulerSeedDeterminism extends the determinism contract to the
// deadline-aware scheduler: identical seeds must reproduce the same
// admissions, faults, recoveries and energy accounting — byte-identical SLO
// report and observability export, even mid-fault-storm.
func TestSchedulerSeedDeterminism(t *testing.T) {
	first := scheduleRun(t, 42)
	second := scheduleRun(t, 42)
	if !bytes.Equal(first, second) {
		t.Fatalf("identically seeded scheduler runs diverged\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	if other := scheduleRun(t, 43); bytes.Equal(first, other) {
		t.Fatal("differently seeded scheduler runs produced identical bytes; draws are not seeded")
	}
}

// TestFaultInjectionSeedDeterminism pins injected faults into the same
// determinism contract as measurement noise: identical seeds must reproduce
// the same faults, the same recoveries and byte-identical results — which is
// what makes a failure scenario replayable for debugging.
func TestFaultInjectionSeedDeterminism(t *testing.T) {
	first := resilientRun(t, 42, 7)
	second := resilientRun(t, 42, 7)
	if !bytes.Equal(first, second) {
		t.Fatalf("identically seeded faulty runs diverged\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	if other := resilientRun(t, 42, 8); bytes.Equal(first, other) {
		t.Fatal("different fault seeds produced identical results; fault draws are not seeded")
	}
}

// TestEmptyFaultPlanPreservesFaultFreeResults locks in the other half of the
// contract: attaching an empty plan must leave results bit-identical to a
// cluster that never heard of fault injection.
func TestEmptyFaultPlanPreservesFaultFreeResults(t *testing.T) {
	run := func(attach bool) []byte {
		c, err := cluster.New(42, gpusim.V100Spec(), 4, cluster.DefaultInterconnect())
		if err != nil {
			t.Fatal(err)
		}
		if attach {
			if err := c.SetFaultPlan(faults.Plan{Seed: 7}, cluster.DefaultResilienceConfig()); err != nil {
				t.Fatal(err)
			}
		}
		lr, err := c.ScreenLiGen(ligen.Input{Ligands: 1024, Atoms: 63, Fragments: 8})
		if err != nil {
			t.Fatal(err)
		}
		cr, err := c.RunCronos(32, 16, 16, 12)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		fmt.Fprintf(&buf, "%+v\n%+v\n", lr, cr)
		return buf.Bytes()
	}
	if !bytes.Equal(run(false), run(true)) {
		t.Fatal("an empty fault plan changed fault-free results")
	}
}

func TestCharacterizationSeedDeterminism(t *testing.T) {
	first := characterize(t, 42, 1)
	second := characterize(t, 42, 1)
	if !bytes.Equal(first, second) {
		t.Fatalf("identically seeded characterizations produced different datasets\n--- first ---\n%s\n--- second ---\n%s",
			first, second)
	}
	if other := characterize(t, 43, 1); bytes.Equal(first, other) {
		t.Fatal("differently seeded characterizations produced identical datasets; measurement noise is not seeded")
	}
}

// TestParallelCharacterizationMatchesSerial pins the parallel engine's
// end-to-end contract: the same campaign run serially (Workers=1), on the
// full GOMAXPROCS pool (Workers=0) and on an awkward worker count produces
// byte-identical CSV datasets, because every measurement's randomness is
// pre-split in task order before any worker starts.
func TestParallelCharacterizationMatchesSerial(t *testing.T) {
	serial := characterize(t, 42, 1)
	for _, workers := range []int{0, 3} {
		if got := characterize(t, 42, workers); !bytes.Equal(serial, got) {
			t.Fatalf("Workers=%d characterization diverged from serial bytes", workers)
		}
	}
}

// serveRun executes a reduced frequency-advisor serving campaign — four
// advisor shards with a mid-load hot-reload and a rejected corrupt upload —
// and returns the SLO report plus the full observability export as bytes.
func serveRun(t *testing.T, seed uint64, workers int) []byte {
	t.Helper()
	cfg := experiments.QuickConfig()
	cfg.Seed = seed
	cfg.ServeRequests = 4000
	cfg.Jobs = workers
	o := obs.NewObserver()
	cfg.Obs = o
	r, err := cfg.Serve()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if err := o.WriteMetricsText(&buf); err != nil {
		t.Fatal(err)
	}
	if err := o.WriteTraceText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestServeSeedDeterminism extends the determinism contract to the serving
// layer: identical seeds must replay the same multi-shard request load —
// same arrivals, batch closings, cache evictions and hot-reloads — to a
// byte-identical SLO report and observability export, for every worker
// count.
func TestServeSeedDeterminism(t *testing.T) {
	first := serveRun(t, 42, 1)
	for _, workers := range []int{0, 3} {
		if got := serveRun(t, 42, workers); !bytes.Equal(first, got) {
			t.Fatalf("Jobs=%d serving campaign diverged from serial bytes", workers)
		}
	}
	if second := serveRun(t, 42, 1); !bytes.Equal(first, second) {
		t.Fatal("identically seeded serving campaigns diverged")
	}
	if other := serveRun(t, 43, 1); bytes.Equal(first, other) {
		t.Fatal("differently seeded serving campaigns produced identical bytes; load draws are not seeded")
	}
}
