package synergy

import (
	"bytes"
	"strings"
	"testing"

	"dsenergy/internal/faults"
	"dsenergy/internal/obs"
)

// observedSweepPair is sweepPair with a fresh observer attached to each side.
func observedSweepPair(t *testing.T, plan *faults.Plan) (qa, qb *Queue, oa, ob *obs.Observer) {
	t.Helper()
	qa, qb = sweepPair(t, plan)
	oa, ob = obs.NewObserver(), obs.NewObserver()
	qa.SetObserver(oa)
	qb.SetObserver(ob)
	return qa, qb, oa, ob
}

func exportAll(t *testing.T, o *obs.Observer) (metrics, trace string) {
	t.Helper()
	var m, tr bytes.Buffer
	if err := o.WriteMetricsText(&m); err != nil {
		t.Fatal(err)
	}
	if err := o.WriteTraceText(&tr); err != nil {
		t.Fatal(err)
	}
	return m.String(), tr.String()
}

func TestSweepTraceIdenticalSerialVsParallel(t *testing.T) {
	qa, qb, oa, ob := observedSweepPair(t, nil)
	freqs := qa.SupportedFreqsMHz()
	if _, err := Sweep(qa, sweepWorkload{testProfile()}, freqs, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := ParallelSweep(qb, sweepWorkload{testProfile()}, freqs, 3, 8); err != nil {
		t.Fatal(err)
	}
	requireQueuesIdentical(t, qa, qb, "observed sweep")
	ma, ta := exportAll(t, oa)
	mb, tb := exportAll(t, ob)
	if ma != mb {
		t.Errorf("metric exports diverged between serial and parallel sweep:\n%s\nvs\n%s", ma, mb)
	}
	if ta != tb {
		t.Errorf("trace exports diverged between serial and parallel sweep:\n%s\nvs\n%s", ta, tb)
	}
	if len(oa.Trace().Spans()) != len(freqs) {
		t.Errorf("trace has %d spans, want one per frequency (%d)", len(oa.Trace().Spans()), len(freqs))
	}
	if !strings.Contains(ma, "synergy_measurements_total{device=NVIDIA V100}") {
		t.Errorf("measurement counter missing from export:\n%s", ma)
	}
}

func TestObserverDoesNotPerturbSweep(t *testing.T) {
	// Core acceptance criterion at this layer: an attached observer must not
	// change a single observable byte of the sweep.
	qa, qb := sweepPair(t, nil)
	qb.SetObserver(obs.NewObserver())
	freqs := qa.SupportedFreqsMHz()
	plain, err := Sweep(qa, sweepWorkload{testProfile()}, freqs, 3)
	if err != nil {
		t.Fatal(err)
	}
	observed, err := Sweep(qb, sweepWorkload{testProfile()}, freqs, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if plain[i] != observed[i] {
			t.Fatalf("freq %d: observed sweep diverged: %+v vs %+v", freqs[i], plain[i], observed[i])
		}
	}
	requireQueuesIdentical(t, qa, qb, "observer on/off")
}

func TestFaultCountersMirroredDeterministically(t *testing.T) {
	plan := faults.Plan{
		Seed:      7,
		Throttles: []faults.Throttle{{Device: 0, FromSubmit: 1, ToSubmit: 3, CapMHz: 900}},
	}
	qa, qb, oa, ob := observedSweepPair(t, &plan)
	freqs := qa.SupportedFreqsMHz()
	if _, err := Sweep(qa, sweepWorkload{testProfile()}, freqs, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := ParallelSweep(qb, sweepWorkload{testProfile()}, freqs, 3, 8); err != nil {
		t.Fatal(err)
	}
	st := qa.FaultStats()
	if st.Throttled == 0 {
		t.Fatal("fault plan was not exercised")
	}
	throttled := oa.Metrics().Counter("synergy_throttled_submissions_total", obs.L("device", "NVIDIA V100"))
	if got := throttled.Value(); got != uint64(st.Throttled) {
		t.Errorf("throttle counter = %d, FaultStats says %d", got, st.Throttled)
	}
	ma, _ := exportAll(t, oa)
	mb, _ := exportAll(t, ob)
	if ma != mb {
		t.Errorf("fault-counter exports schedule-dependent:\n%s\nvs\n%s", ma, mb)
	}
}

func TestFailedSweepLeavesTraceUntouched(t *testing.T) {
	// Absorb-nothing-on-error extends to observability: a failed sweep must
	// not leak partial spans into the parent's trace.
	plan := faults.Plan{
		Seed:     7,
		Failures: []faults.DeviceFailure{{Device: 0, AfterSubmits: 1}},
	}
	qa, _, oa, _ := observedSweepPair(t, &plan)
	freqs := qa.SupportedFreqsMHz()
	if _, err := ParallelSweep(qa, sweepWorkload{testProfile()}, freqs, 3, 8); err == nil {
		t.Fatal("sweep should fail on the scheduled device loss")
	}
	if n := len(oa.Trace().Spans()); n != 0 {
		t.Errorf("failed sweep left %d spans on the parent trace", n)
	}
}
