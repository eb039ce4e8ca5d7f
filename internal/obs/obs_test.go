package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestNilObserverIsNoOp(t *testing.T) {
	var o *Observer
	// Every operation on a nil observer must be a safe no-op.
	o.Metrics().Counter("x").Inc()
	o.Metrics().Histogram("h", []float64{1}).Observe(0.5)
	o.Trace().Add("span", 1.0)
	stop := o.Profile().Phase("p").Start()
	stop()
	kids := o.ForkN(3)
	if len(kids) != 3 || kids[0] != nil {
		t.Fatalf("ForkN on nil observer: got %v", kids)
	}
	o.AbsorbAll(kids)
	var buf bytes.Buffer
	if err := o.WriteMetricsText(&buf); err != nil {
		t.Fatal(err)
	}
	if err := o.WriteMetricsJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := o.WriteTraceText(&buf); err != nil {
		t.Fatal(err)
	}
	if err := o.WriteProfileText(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryLabelCanonicalisation(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("m", L("b", "2"), L("a", "1"))
	b := r.Counter("m", L("a", "1"), L("b", "2"))
	if a != b {
		t.Fatal("label order must not create distinct handles")
	}
	a.Add(5)
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	want := "m{a=1,b=2} 5\n"
	if buf.String() != want {
		t.Fatalf("export = %q, want %q", buf.String(), want)
	}
}

func TestRegistryExportSortedAndStable(t *testing.T) {
	r := NewRegistry()
	r.Counter("zeta").Add(1)
	r.Counter("alpha", L("k", "v")).Add(2)
	r.Counter("mid").Add(3)
	var a, b bytes.Buffer
	if err := r.WriteText(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("repeated exports differ")
	}
	lines := strings.Split(strings.TrimSpace(a.String()), "\n")
	want := []string{"alpha{k=v} 2", "mid 3", "zeta 1"}
	if len(lines) != len(want) {
		t.Fatalf("got %d lines, want %d", len(lines), len(want))
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("line %d = %q, want %q", i, lines[i], want[i])
		}
	}
}

func TestUnstableExcludedFromDeterministicExport(t *testing.T) {
	r := NewRegistry()
	r.Counter("stable_total").Add(1)
	r.UnstableCounter("cache_hits_total").Add(7)
	var txt, js bytes.Buffer
	if err := r.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{txt.String(), js.String()} {
		if strings.Contains(s, "cache_hits_total") {
			t.Fatalf("unstable metric leaked into deterministic export:\n%s", s)
		}
		if !strings.Contains(s, "stable_total") {
			t.Fatalf("stable metric missing from export:\n%s", s)
		}
	}
	// The unstable tier shows up in the profile dump instead.
	o := NewObserver()
	o.Metrics().UnstableCounter("cache_hits_total").Add(3)
	var prof bytes.Buffer
	if err := o.WriteProfileText(&prof); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prof.String(), "cache_hits_total 3") {
		t.Fatalf("unstable metric missing from profile dump:\n%s", prof.String())
	}
}

func TestHistogramOrderInvariance(t *testing.T) {
	bounds := []float64{0.1, 1, 10}
	obsv := []float64{0.05, 0.5, 5, 50, 0.5, 1, 10} // boundary values land in their own bucket (le semantics)
	export := func(order []int) string {
		r := NewRegistry()
		h := r.Histogram("h", bounds)
		for _, i := range order {
			h.Observe(obsv[i])
		}
		var buf bytes.Buffer
		if err := r.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	fwd := export([]int{0, 1, 2, 3, 4, 5, 6})
	rev := export([]int{6, 5, 4, 3, 2, 1, 0})
	if fwd != rev {
		t.Fatalf("histogram export depends on observation order:\n%s\nvs\n%s", fwd, rev)
	}
	if !strings.Contains(fwd, "count=7") || !strings.Contains(fwd, "min=0.05") || !strings.Contains(fwd, "max=50") {
		t.Fatalf("unexpected histogram export: %s", fwd)
	}
	// le-bucket semantics: 0.05→le(0.1); 0.5,0.5,1→le(1); 5,10→le(10); 50→+Inf.
	if !strings.Contains(fwd, "le(0.1)=1 le(1)=3 le(10)=2 le(+Inf)=1") {
		t.Fatalf("unexpected bucket counts: %s", fwd)
	}
}

func TestForkedTalliesAbsorbAsDirectObservations(t *testing.T) {
	// Counting on forks and absorbing them must export what counting on
	// the parent does; a fork that is never absorbed counts nothing.
	bounds := []float64{0.1, 1, 10}
	kept := []float64{0.05, 0.5, 5, 0.5, 1, 10}
	export := func(forked bool) string {
		r := NewRegistry()
		c, h := r.Counter("c"), r.Histogram("h", bounds)
		if forked {
			for _, v := range []float64{50, 0.01} { // dropped
				c.Fork().Inc()
				h.Fork().Observe(v)
			}
		}
		for _, v := range kept {
			if !forked {
				c.Inc()
				h.Observe(v)
				continue
			}
			fc, fh := c.Fork(), h.Fork()
			fc.Inc()
			fh.Observe(v)
			c.Absorb(fc)
			h.Absorb(fh)
		}
		var buf bytes.Buffer
		if err := r.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	direct, forked := export(false), export(true)
	if forked != direct {
		t.Fatalf("absorbed forks exported\n%s\ndirect counting exported\n%s", forked, direct)
	}
	if !strings.Contains(direct, "count=6 min=0.05 max=10") {
		t.Fatalf("unexpected export: %s", direct)
	}
	var nc *Counter
	var nh *Histogram
	if nc.Fork() != nil || nh.Fork() != nil {
		t.Fatal("forking a nil handle must give nil")
	}
	nc.Absorb(nil)
	nh.Absorb(nil)
}

func TestHistogramEmpty(t *testing.T) {
	r := NewRegistry()
	r.Histogram("h", []float64{1})
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "min=") || strings.Contains(buf.String(), "max=") {
		t.Fatalf("empty histogram must not export min/max: %s", buf.String())
	}
	if math.IsInf(r.Histogram("h", nil).Min(), 1) != true {
		t.Fatal("empty histogram Min should be +Inf")
	}
}

func TestConcurrentCountersDeterministic(t *testing.T) {
	// 8 goroutines × 1000 increments: the total is schedule-independent.
	r := NewRegistry()
	c := r.Counter("n")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
}

func TestTraceForkAbsorbOrder(t *testing.T) {
	// Children record concurrently; absorbing in task order must yield the
	// same byte export as the serial equivalent.
	serial := NewTrace()
	for i := 0; i < 4; i++ {
		serial.Add("task", float64(i+1), L("idx", string(rune('a'+i))))
	}
	parent := NewTrace()
	kids := make([]*Trace, 4)
	for i := range kids {
		kids[i] = parent.Fork()
	}
	var wg sync.WaitGroup
	for i := 3; i >= 0; i-- { // start in reverse order to shake scheduling
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			kids[i].Add("task", float64(i+1), L("idx", string(rune('a'+i))))
		}(i)
	}
	wg.Wait()
	for _, k := range kids {
		parent.Absorb(k)
	}
	var a, b bytes.Buffer
	if err := serial.WriteText(&a); err != nil {
		t.Fatal(err)
	}
	if err := parent.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("fork/absorb trace differs from serial:\n%s\nvs\n%s", a.String(), b.String())
	}
}

func TestTraceStartOffsets(t *testing.T) {
	tr := NewTrace()
	tr.Add("a", 1.5)
	tr.Add("b", 2.25)
	var buf bytes.Buffer
	if err := tr.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "start=0s dur=1.5s  a") {
		t.Fatalf("missing first span offset: %s", out)
	}
	if !strings.Contains(out, "start=1.5s dur=2.25s  b") {
		t.Fatalf("missing cumulative offset: %s", out)
	}
}

func TestObserverForkSharesMetrics(t *testing.T) {
	o := NewObserver()
	kids := o.ForkN(2)
	kids[0].Metrics().Counter("n").Add(1)
	kids[1].Metrics().Counter("n").Add(2)
	kids[0].Trace().Add("s0", 1)
	kids[1].Trace().Add("s1", 2)
	o.AbsorbAll(kids)
	if got := o.Metrics().Counter("n").Value(); got != 3 {
		t.Fatalf("forked metrics not shared: %d", got)
	}
	spans := o.Trace().Spans()
	if len(spans) != 2 || spans[0].Name != "s0" || spans[1].Name != "s1" {
		t.Fatalf("absorbed spans out of order: %v", spans)
	}
}

func TestProfilePhases(t *testing.T) {
	p := NewProfile()
	stop := p.Phase("train").Start()
	stop()
	p.Phase("train").Start()() // immediate stop
	if got := p.Phase("train").Count(); got != 2 {
		t.Fatalf("phase count = %d, want 2", got)
	}
	var buf bytes.Buffer
	if err := p.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "train") || !strings.Contains(buf.String(), "count=2") {
		t.Fatalf("profile dump missing phase: %s", buf.String())
	}
}

func TestWriteJSONShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(2)
	r.Histogram("h", []float64{1}).Observe(0.5)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`"c": {"type":"counter","value":2}`,
		`"h": {"type":"histogram","count":1,"min":0.5,"max":0.5,"buckets":[{"le":1,"count":1},{"le":"+Inf","count":0}]}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("JSON export missing %q:\n%s", want, out)
		}
	}
}
