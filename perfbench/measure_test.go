package main

import (
	"bytes"
	"testing"
	"time"

	"dsenergy/internal/serve"
	"dsenergy/internal/xrand"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		// Descending, so the function must sort.
		out[i] = float64(n - i)
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		samples []float64
		p       int
		want    float64
	}{
		{seq(20), 50, 10},
		{seq(100), 50, 50},
		{seq(100), 90, 90},
		{seq(1000), 99, 990},
		{seq(1001), 99, 991}, // rank ceil(990.99) = 991
		{[]float64{5, 1, 3, 2, 4, 9, 8, 7, 6, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}, 50, 10},
	} {
		got, err := percentile(tc.samples, tc.p)
		if err != nil {
			t.Errorf("p%d of %d samples: %v", tc.p, len(tc.samples), err)
			continue
		}
		if got != tc.want {
			t.Errorf("p%d of %d samples = %g, want %g", tc.p, len(tc.samples), got, tc.want)
		}
	}
}

func TestPercentileRefusesTooFewSamplesBeyond(t *testing.T) {
	for _, tc := range []struct{ n, p int }{
		{999, 99}, // a p99 needs 1,000 samples
		{100, 99},
		{19, 50}, // a median needs 20
		{0, 50},
		{100, 0},
		{100, 100},
	} {
		if v, err := percentile(seq(tc.n), tc.p); err == nil {
			t.Errorf("p%d of %d samples = %g, want refusal", tc.p, tc.n, v)
		}
	}
	if _, err := percentile(seq(1000), 99); err != nil {
		t.Errorf("p99 of 1,000 samples refused: %v", err)
	}
	if _, err := percentile(seq(20), 50); err != nil {
		t.Errorf("p50 of 20 samples refused: %v", err)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
}

func TestFailedFracAccounting(t *testing.T) {
	ref := map[string][]byte{"fig01.txt": []byte("a 1\nb 2\n")}
	corrupt := map[string][]byte{"fig01.txt": []byte("a 1\nb 3\n")}
	for _, tc := range []struct {
		what        string
		got         []byte
		ref         map[string][]byte
		checks      int
		err         error
		failed, bad bool
	}{
		{"matches reference", []byte("a 1\nb 2\n"), ref, 0, nil, false, false},
		{"corrupted reference", []byte("a 1\nb 2\n"), corrupt, 0, nil, true, true},
		{"truncated output", []byte("a 1\n"), ref, 0, nil, true, true},
		{"generator error", nil, ref, 0, errTest, true, true},
		{"failed check off the reference seed", []byte("x"), nil, 3, nil, true, false},
		{"clean off the reference seed", []byte("x"), nil, 0, nil, false, false},
	} {
		failed, problem := judgeFile("fig01.txt", tc.got, tc.ref, referenceDir, tc.checks, tc.err)
		if failed != tc.failed || (problem != "") != tc.bad {
			t.Errorf("%s: failed=%v problem=%q, want failed=%v problem=%v", tc.what, failed, problem, tc.failed, tc.bad)
		}
	}
	if got := failedFrac(26_322, 2_000_000); got != 0.013161 {
		t.Errorf("failedFrac = %g", got)
	}
	if got := failedFrac(0, 0); got != 0 {
		t.Errorf("failedFrac of nothing = %g", got)
	}
}

// TestTallyCountsTheFirstRound checks that attempted and failed do not
// grow with the number of rounds that fit in a run, and that a later round
// failing another number of ops than the first is a wrong output.
func TestTallyCountsTheFirstRound(t *testing.T) {
	round := func(ops, failed int) roundRecord { return roundRecord{out: roundOut{ops: ops, failed: failed}} }
	for _, rounds := range [][]roundRecord{
		{round(22, 1)},
		{round(22, 1), round(22, 1), round(22, 1)},
	} {
		attempted, failed, problems := tally(rounds)
		if attempted != 22 || failed != 1 || len(problems) != 0 {
			t.Errorf("%d rounds: attempted=%d failed=%d problems=%v, want 22, 1, none", len(rounds), attempted, failed, problems)
		}
	}
	attempted, failed, problems := tally([]roundRecord{round(22, 1), round(22, 1), round(22, 2)})
	if attempted != 22 || failed != 1 || len(problems) != 1 {
		t.Errorf("a round failing more: attempted=%d failed=%d problems=%v, want 22, 1, one problem", attempted, failed, problems)
	}
}

func TestUnstolen(t *testing.T) {
	s := time.Second
	for _, tc := range []struct {
		what                   string
		wall, cpu, steal, want time.Duration
	}{
		{"no steal", 10 * s, 7 * s, 0, 10 * s},
		{"serial, 2 s stolen", 10 * s, 8 * s, 2 * s, 8 * s},
		{"busy on two vCPUs, 2 s stolen from each", 10 * s, 16 * s, 4 * s, 8 * s},
		{"no CPU time read", 10 * s, 0, 2 * s, 10 * s},
	} {
		if got := unstolen(tc.wall, tc.cpu, tc.steal); got != tc.want {
			t.Errorf("%s: unstolen = %v, want %v", tc.what, got, tc.want)
		}
	}
}

var errTest = bytes.ErrTooLarge

func TestServeReportChecks(t *testing.T) {
	good := &serve.Report{Submitted: 10, Completed: 8, Rejected: 2, ReloadsRejected: 1,
		PerVersion: []serve.VersionCount{
			{App: "ligen", Device: "v100-a", Version: 1, Responses: 3},
			{App: "ligen", Device: "v100-a", Version: 2, Responses: 2},
		}}
	if p := checkServeReport(good); len(p) != 0 {
		t.Fatalf("good report flagged: %v", p)
	}
	lost := *good
	lost.Completed = 7 // a truncated response: answered neither way
	accepted := *good
	accepted.ReloadsRejected = 0
	oneVersion := *good
	oneVersion.PerVersion = good.PerVersion[:1]
	for name, r := range map[string]*serve.Report{"lost": &lost, "accepted": &accepted, "one version": &oneVersion} {
		if p := checkServeReport(r); len(p) != 1 {
			t.Errorf("%s: problems %v, want one", name, p)
		}
	}
}

func TestAdviseVerifyCountsTruncatedResponse(t *testing.T) {
	w := &adviseCold{freqs: []int{900, 1000}, queries: []query{{app: "ligen"}, {app: "ligen"}, {app: "ligen"}}}
	// An errored call, a truncated (zero) response, and a clock that is
	// not on the menu.
	resps := []serve.Response{{}, {}, {RecommendedMHz: 950}}
	failed, problems := w.verify(resps, []error{errTest, nil, nil})
	if failed != 3 || len(problems) != 3 {
		t.Errorf("failed=%d problems=%v, want 3 of each", failed, problems)
	}
}

func TestRepeatFrac(t *testing.T) {
	var r repeatCounter[string]
	for _, k := range []string{"a", "b", "a", "a"} {
		r.add(k)
	}
	if got := r.frac(); got != 0.5 {
		t.Errorf("a b a a: repeat frac %g, want 0.5", got)
	}
	var w repeatCounter[uint64]
	for k := range uint64(5) {
		w.add(k)
	}
	if got := w.frac(); got != 0 {
		t.Errorf("distinct inputs: repeat frac %g, want 0", got)
	}
	var none repeatCounter[int]
	if got := none.frac(); got != 0 {
		t.Errorf("empty: repeat frac %g", got)
	}
}

func TestEnergyPerOpIgnoresRoundCount(t *testing.T) {
	// Later rounds of advise_cold ask other shapes, so their energy per op
	// differs from the first round's; the metric must not see them.
	rounds := []roundRecord{
		{out: roundOut{energyJ: 300, answered: 100}},
		{out: roundOut{energyJ: 500, answered: 100}},
		{out: roundOut{energyJ: 100, answered: 100}},
	}
	for n := 1; n <= len(rounds); n++ {
		got, err := energyPerOp(rounds[:n])
		if err != nil || got != 3 {
			t.Errorf("%d rounds: energy per op %g (%v), want 3", n, got, err)
		}
	}
	if _, err := energyPerOp([]roundRecord{{out: roundOut{energyJ: 1}}}); err == nil {
		t.Error("energy per op of a round with no answered ops accepted")
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "root", parent: -1, start: 0, end: 100 * ms},
		{name: "a", parent: 0, start: 10 * ms, end: 30 * ms},
		{name: "b", parent: 0, start: 20 * ms, end: 50 * ms},  // overlaps a
		{name: "c", parent: 0, start: 90 * ms, end: 120 * ms}, // ends after root
		{name: "a.x", parent: 1, start: 12 * ms, end: 14 * ms},
	}
	// Children cover [10,50) and [90,100): 50 ms of the root's 100.
	if got := selfTime(spans, 0); got != 50*ms {
		t.Errorf("root self time %v, want 50ms", got)
	}
	if got := selfTime(spans, 1); got != 18*ms {
		t.Errorf("a self time %v, want 18ms", got)
	}
	if got := selfTime(spans, 4); got != 2*ms {
		t.Errorf("leaf self time %v, want its duration", got)
	}
}

func TestShapeSpaceVisitsEachShapeOnce(t *testing.T) {
	s := newShapeSpace([3]int{10, 5, 2}, [3]int{12, 8, 6}, xrand.New(3))
	seen := map[[3]int]bool{}
	for {
		sh, _, ok := s.take()
		if !ok {
			break
		}
		for k, v := range sh {
			if v < s.lo[k] || v >= s.lo[k]+s.span[k] {
				t.Fatalf("shape %v outside the box", sh)
			}
		}
		if seen[sh] {
			t.Fatalf("shape %v drawn twice", sh)
		}
		seen[sh] = true
	}
	if len(seen) != 3*4*5 {
		t.Errorf("visited %d shapes, want 60", len(seen))
	}
}

func TestSumMetric(t *testing.T) {
	export := []byte(`gpusim_kernel_launches_total{device="Tesla V100 #0"} 5
gpusim_kernel_launches_total{device="MI100"} 7
gpusim_kernel_launches_totalx 100
ml_trees_trained_total 3
`)
	if got := sumMetric(export, "gpusim_kernel_launches_total"); got != 12 {
		t.Errorf("sumMetric = %g, want 12", got)
	}
	if got := sumMetric(export, "ml_trees_trained_total"); got != 3 {
		t.Errorf("unlabelled sumMetric = %g, want 3", got)
	}
}

func TestClockAdvances(t *testing.T) {
	c := newClock()
	a := c.now()
	b := c.now()
	if a < 0 || b < a {
		t.Errorf("clock went backwards: %v then %v", a, b)
	}
}
