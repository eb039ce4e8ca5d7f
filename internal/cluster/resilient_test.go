package cluster

import (
	"errors"
	"math"
	"testing"

	"dsenergy/internal/faults"
	"dsenergy/internal/gpusim"
	"dsenergy/internal/ligen"
)

func resilientCluster(t *testing.T, n int, plan faults.Plan) *Cluster {
	t.Helper()
	c := newCluster(t, n)
	if err := c.SetFaultPlan(plan, ResilienceConfig{}); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestEmptyPlanMatchesFaultFreeRun(t *testing.T) {
	in := ligen.Input{Ligands: 4096, Atoms: 63, Fragments: 8}
	base, err := newCluster(t, 4).ScreenLiGen(in)
	if err != nil {
		t.Fatal(err)
	}
	withPlan := resilientCluster(t, 4, faults.Plan{Seed: 99})
	got, err := withPlan.ScreenLiGen(in)
	if err != nil {
		t.Fatal(err)
	}
	if withPlan.Resilient() {
		t.Error("empty plan must not attach an injector")
	}
	if math.Abs(got.TimeS-base.TimeS) > 0 || math.Abs(got.EnergyJ-base.EnergyJ) > 0 {
		t.Errorf("empty plan changed results: %+v vs %+v", got, base)
	}
	if got.Retries != 0 || got.Failovers != 0 || got.WastedEnergyJ != 0 {
		t.Errorf("fault-free run reported resilience costs: %+v", got)
	}
}

func TestLiGenSurvivesPermanentFailure(t *testing.T) {
	in := ligen.Input{Ligands: 4096, Atoms: 63, Fragments: 8}
	base, err := newCluster(t, 4).ScreenLiGen(in)
	if err != nil {
		t.Fatal(err)
	}
	// Device 2 dies mid-campaign (shards are 3 submissions each; die inside
	// its second shard).
	plan := faults.Plan{
		Seed:     5,
		Failures: []faults.DeviceFailure{{Device: 2, AfterSubmits: 4}},
	}
	c := resilientCluster(t, 4, plan)
	res, err := c.ScreenLiGen(in)
	if err != nil {
		t.Fatalf("campaign did not survive device loss: %v", err)
	}
	if res.Failovers != 1 {
		t.Errorf("Failovers = %d, want 1", res.Failovers)
	}
	if res.SurvivingDevices != 3 {
		t.Errorf("SurvivingDevices = %d, want 3", res.SurvivingDevices)
	}
	if res.WastedEnergyJ <= 0 || res.WastedTimeS <= 0 {
		t.Errorf("aborted shard should report wasted work, got %+v", res)
	}
	// The survivors absorb the requeued shards: slower than fault-free, but
	// not catastrophically (4096 ligands over 3 devices instead of 4).
	if res.TimeS <= base.TimeS {
		t.Errorf("degraded run time %.4fs should exceed fault-free %.4fs", res.TimeS, base.TimeS)
	}
	if res.TimeS > 3*base.TimeS {
		t.Errorf("degraded run time %.4fs implausibly worse than fault-free %.4fs", res.TimeS, base.TimeS)
	}
	// The dead device keeps its partial busy time.
	if res.PerDevice[2] <= 0 {
		t.Errorf("dead device busy time = %v, want > 0", res.PerDevice[2])
	}
}

func TestCronosSurvivesPermanentFailureViaCheckpointRestart(t *testing.T) {
	const nx, ny, nz, steps = 64, 64, 32, 24
	base, err := newCluster(t, 4).RunCronos(nx, ny, nz, steps)
	if err != nil {
		t.Fatal(err)
	}
	// Each 1-step slab run is 4 submissions; device 1 dies during step 11
	// (after 10 clean steps = 40 submissions), between checkpoints at step 8
	// and 16 with the default interval.
	plan := faults.Plan{
		Seed:     5,
		Failures: []faults.DeviceFailure{{Device: 1, AfterSubmits: 41}},
	}
	c := resilientCluster(t, 4, plan)
	res, err := c.RunCronos(nx, ny, nz, steps)
	if err != nil {
		t.Fatalf("simulation did not survive device loss: %v", err)
	}
	if res.Failovers != 1 || res.SurvivingDevices != 3 {
		t.Errorf("Failovers/Surviving = %d/%d, want 1/3", res.Failovers, res.SurvivingDevices)
	}
	// Steps 9 and 10 were rolled back and re-executed: wasted work plus
	// checkpoint overhead must show up.
	if res.WastedEnergyJ <= 0 || res.WastedTimeS <= 0 {
		t.Errorf("rollback should report wasted work, got %+v", res)
	}
	if res.CheckpointTimeS <= 0 {
		t.Errorf("checkpointing run reported zero CheckpointTimeS")
	}
	if res.TimeS <= base.TimeS {
		t.Errorf("degraded run time %.4fs should exceed fault-free %.4fs", res.TimeS, base.TimeS)
	}
}

func TestTransientRetriesRecover(t *testing.T) {
	in := ligen.Input{Ligands: 2048, Atoms: 63, Fragments: 8}
	plan := faults.Plan{Seed: 11, TransientProb: 0.15}
	c := newCluster(t, 2)
	if err := c.SetFaultPlan(plan, ResilienceConfig{MaxRetries: 8}); err != nil {
		t.Fatal(err)
	}
	res, err := c.ScreenLiGen(in)
	if err != nil {
		t.Fatalf("transient faults at p=0.05 should be absorbed by retries: %v", err)
	}
	if res.Retries == 0 {
		t.Error("expected at least one retry at TransientProb=0.15")
	}
	if res.BackoffTimeS <= 0 {
		t.Error("retries must accumulate backoff time")
	}
	if res.Failovers != 0 || res.SurvivingDevices != 2 {
		t.Errorf("transient-only plan lost devices: %+v", res)
	}
}

func TestTransientBudgetExhaustionFailsJob(t *testing.T) {
	in := ligen.Input{Ligands: 2048, Atoms: 63, Fragments: 8}
	plan := faults.Plan{Seed: 11, TransientProb: 1.0} // every submission faults
	c := resilientCluster(t, 2, plan)
	if _, err := c.ScreenLiGen(in); err == nil {
		t.Fatal("TransientProb=1 must exhaust the retry budget and fail the job")
	}
}

func TestAllDevicesDeadFailsJob(t *testing.T) {
	plan := faults.Plan{
		Seed: 3,
		Failures: []faults.DeviceFailure{
			{Device: 0, AfterSubmits: 0},
			{Device: 1, AfterSubmits: 0},
		},
	}
	c := resilientCluster(t, 2, plan)
	if _, err := c.ScreenLiGen(ligen.Input{Ligands: 64, Atoms: 31, Fragments: 4}); err == nil {
		t.Fatal("expected error once every device has failed")
	}
	c2 := resilientCluster(t, 2, plan)
	if _, err := c2.RunCronos(32, 32, 8, 4); err == nil {
		t.Fatal("expected Cronos error once every device has failed")
	}
}

func TestTotalCapacityLossIsTypedError(t *testing.T) {
	// Both application paths must surface total capacity loss as
	// ErrNoSurvivingDevices so callers (the scheduler's failover re-planning
	// above all) can branch on errors.Is instead of string matching — whether
	// the devices die mid-campaign or were already dead at submission.
	plan := faults.Plan{
		Seed: 3,
		Failures: []faults.DeviceFailure{
			{Device: 0, AfterSubmits: 2},
			{Device: 1, AfterSubmits: 2},
		},
	}
	c := resilientCluster(t, 2, plan)
	_, err := c.ScreenLiGen(ligen.Input{Ligands: 4096, Atoms: 63, Fragments: 8})
	if !errors.Is(err, ErrNoSurvivingDevices) {
		t.Errorf("LiGen mid-campaign loss: got %v, want ErrNoSurvivingDevices", err)
	}
	// The cluster is now fully dead: the next submission must fail fast with
	// the same sentinel.
	if _, err := c.ScreenLiGen(ligen.Input{Ligands: 64, Atoms: 31, Fragments: 4}); !errors.Is(err, ErrNoSurvivingDevices) {
		t.Errorf("LiGen on dead cluster: got %v, want ErrNoSurvivingDevices", err)
	}
	c2 := resilientCluster(t, 2, plan)
	_, err = c2.RunCronos(32, 32, 8, 4)
	if !errors.Is(err, ErrNoSurvivingDevices) {
		t.Errorf("Cronos mid-run loss: got %v, want ErrNoSurvivingDevices", err)
	}
	if _, err := c2.RunCronos(32, 32, 8, 4); !errors.Is(err, ErrNoSurvivingDevices) {
		t.Errorf("Cronos on dead cluster: got %v, want ErrNoSurvivingDevices", err)
	}
}

func TestResilientRunsAreSeedDeterministic(t *testing.T) {
	in := ligen.Input{Ligands: 2048, Atoms: 63, Fragments: 8}
	plan := faults.Plan{
		Seed:          21,
		TransientProb: 0.03,
		Failures:      []faults.DeviceFailure{{Device: 0, AfterSubmits: 7}},
	}
	run := func(p faults.Plan) Result {
		res, err := resilientCluster(t, 3, p).ScreenLiGen(in)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(plan), run(plan)
	if a.TimeS != b.TimeS || a.EnergyJ != b.EnergyJ || a.Retries != b.Retries ||
		a.WastedEnergyJ != b.WastedEnergyJ || a.BackoffTimeS != b.BackoffTimeS {
		t.Errorf("identical seeds diverged:\n%+v\n%+v", a, b)
	}
	plan.Seed = 22
	c := run(plan)
	if a.TimeS == c.TimeS && a.EnergyJ == c.EnergyJ && a.Retries == c.Retries {
		t.Error("different fault seeds produced identical results")
	}
}

func TestSetFaultPlanValidates(t *testing.T) {
	c := newCluster(t, 2)
	bad := faults.Plan{Seed: 1, Failures: []faults.DeviceFailure{{Device: 5}}}
	if err := c.SetFaultPlan(bad, ResilienceConfig{}); err == nil {
		t.Error("expected error for out-of-range device index")
	}
	if c.Resilient() {
		t.Error("rejected plan must not attach")
	}
}

func TestSetCoreFreqRollsBackOnRejection(t *testing.T) {
	// Device 2 rejects its first clock set; devices 0 and 1 were already
	// pinned and must be rolled back to their previous clock.
	plan := faults.Plan{
		Seed:         1,
		ClockRejects: []faults.ClockReject{{Device: 2, OnSet: 2}},
	}
	c := resilientCluster(t, 3, plan)
	freqs := gpusim.V100Spec().CoreFreqsMHz
	first, second := freqs[len(freqs)-1], freqs[len(freqs)-2]
	if err := c.SetCoreFreqMHz(first); err != nil {
		t.Fatalf("first cluster-wide set should succeed: %v", err)
	}
	if err := c.SetCoreFreqMHz(second); err == nil {
		t.Fatal("expected rejection from device 2 on its second clock set")
	}
	for i, q := range c.Queues() {
		if got := q.PinnedFreqMHz(); got != first {
			t.Errorf("device %d pinned at %d MHz after rollback, want %d", i, got, first)
		}
	}
}

func TestSetCoreFreqRollbackRestoresUnpinned(t *testing.T) {
	// Rejection on the very first cluster-wide set: prior state was
	// "unpinned", so rollback must reset, not pin.
	plan := faults.Plan{
		Seed:         1,
		ClockRejects: []faults.ClockReject{{Device: 1, OnSet: 1}},
	}
	c := resilientCluster(t, 2, plan)
	freqs := gpusim.V100Spec().CoreFreqsMHz
	if err := c.SetCoreFreqMHz(freqs[0]); err == nil {
		t.Fatal("expected rejection from device 1 on its first clock set")
	}
	for i, q := range c.Queues() {
		if got := q.PinnedFreqMHz(); got != 0 {
			t.Errorf("device %d still pinned at %d MHz, want unpinned", i, got)
		}
	}
}

// Resilient reports whether a non-empty fault plan is attached.
func (c *Cluster) Resilient() bool { return c.inj != nil }
