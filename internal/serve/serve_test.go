package serve

import (
	"bytes"
	"container/list"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"dsenergy/internal/core"
	"dsenergy/internal/ml"
	"dsenergy/internal/obs"
	"dsenergy/internal/pareto"
	"dsenergy/internal/xrand"
)

// Test fixtures: a synthetic analytic workload — time = work/clock, energy
// grows with clock — trained into a real forest model pair, so the serving
// path exercises genuine persisted models without the full measurement
// pipeline.

var testFreqs = []int{800, 1000, 1200, 1380, 1500}

var testShapeFeatures = [][]float64{
	{1024, 8, 63},
	{2048, 16, 31},
	{4096, 8, 89},
	{8192, 8, 63},
	{16384, 8, 63},
}

func testDataset() *core.Dataset {
	ds := &core.Dataset{Schema: core.LiGenSchema(), Device: "v100", BaselineFreqMHz: 1380}
	for _, f := range testShapeFeatures {
		work := f[0] * f[1] * f[2] / 4e6
		for _, freq := range testFreqs {
			ds.Samples = append(ds.Samples, core.Sample{
				Features: f,
				FreqMHz:  freq,
				TimeS:    work * 1380 / float64(freq),
				EnergyJ:  work * (30 + float64(freq)/20),
			})
		}
	}
	return ds
}

// testPayload trains a forest pair on the synthetic dataset and returns its
// persisted form. Different seeds give distinct (but valid) versions.
func testPayload(t testing.TB, seed uint64) []byte {
	t.Helper()
	m, err := core.Train(testDataset(), ml.Spec{
		Algorithm: "forest",
		Params:    map[string]float64{"n_estimators": 10},
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// testShapes is the request universe matching the training inputs.
func testShapes() []Shape {
	out := make([]Shape, len(testShapeFeatures))
	for i, f := range testShapeFeatures {
		out[i] = Shape{App: "ligen", Features: f, NominalS: f[0] * f[1] * f[2] / 4e6}
	}
	return out
}

func testConfig(t testing.TB, workers int, o *obs.Observer) Config {
	return Config{
		Shards: []ShardConfig{
			{
				Device: "v100-a",
				Freqs:  testFreqs,
				Models: map[string][]byte{"ligen": testPayload(t, 1)},
				Reloads: []Reload{
					{AtS: 2.0, App: "ligen", Payload: testPayload(t, 99)},
				},
				Shapes: testShapes(),
				Load:   Load{Mode: "open", Requests: 8000, MeanInterarrivalS: 0.0005, MalformedEvery: 500},
			},
			{
				Device: "v100-b",
				Freqs:  testFreqs,
				Models: map[string][]byte{"ligen": testPayload(t, 2)},
				Reloads: []Reload{
					// A truncated payload: must be rejected, old version keeps serving.
					{AtS: 1.0, App: "ligen", Payload: testPayload(t, 2)[:40]},
				},
				Shapes: testShapes(),
				Load:   Load{Mode: "closed", Clients: 6, RequestsPerClient: 800, MeanThinkS: 0.001},
			},
		},
		Seed:    2023,
		Workers: workers,
		Obs:     o,
	}
}

func renderReport(t *testing.T, cfg Config) (string, *Report) {
	t.Helper()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String(), rep
}

func TestRunZeroLossWithReloads(t *testing.T) {
	o := obs.NewObserver()
	_, rep := renderReport(t, testConfig(t, 1, o))
	if rep.Submitted == 0 {
		t.Fatal("no requests submitted")
	}
	if rep.Completed+rep.Rejected != rep.Submitted {
		t.Errorf("lost requests: submitted=%d completed=%d rejected=%d",
			rep.Submitted, rep.Completed, rep.Rejected)
	}
	if rep.Reloads != 1 {
		t.Errorf("reloads published = %d, want 1", rep.Reloads)
	}
	if rep.ReloadsRejected != 1 {
		t.Errorf("reloads rejected = %d, want 1 (truncated payload)", rep.ReloadsRejected)
	}
	if rep.RejectedBadShape == 0 {
		t.Error("malformed requests were not rejected")
	}
	if rep.CacheHits == 0 || rep.Coalesced == 0 {
		t.Errorf("admission tier idle: hits=%d coalesced=%d", rep.CacheHits, rep.Coalesced)
	}
	if rep.Batches == 0 || rep.MeanBatchFlights <= 1 {
		t.Errorf("no batching: batches=%d mean=%.2f", rep.Batches, rep.MeanBatchFlights)
	}
	// Shard a hot-reloaded mid-load: both versions must have answered, and
	// nothing may be attributed to a version that was never published.
	vers := map[int]bool{}
	for _, v := range rep.PerVersion {
		if v.Device == "v100-a" {
			vers[v.Version] = true
		}
		if v.Version < 1 || v.Version > 2 {
			t.Errorf("response attributed to unpublished version %+v", v)
		}
	}
	if !vers[1] || !vers[2] {
		t.Errorf("expected responses from versions 1 and 2 on v100-a, got %+v", rep.PerVersion)
	}
	// Every answer is attributed to exactly one version: each device's
	// per-version responses sum to the requests it completed.
	byDevice := map[string]int{}
	for _, v := range rep.PerVersion {
		byDevice[v.Device] += v.Responses
	}
	total := 0
	for _, dev := range []string{"v100-a", "v100-b"} {
		done := o.Metrics().Counter("serve_responses_total", obs.L("device", dev)).Value()
		if done == 0 || uint64(byDevice[dev]) != done {
			t.Errorf("%s: per-version responses sum to %d, completed %d", dev, byDevice[dev], done)
		}
		total += byDevice[dev]
	}
	if total != rep.Completed || len(byDevice) != 2 {
		t.Errorf("per-version responses sum to %d over %d devices, completed %d", total, len(byDevice), rep.Completed)
	}
	if rep.P99LatencyS < rep.P50LatencyS || rep.MaxLatencyS < rep.P99LatencyS {
		t.Errorf("latency percentiles out of order: %v", rep)
	}
}

func TestRunDeterministicAcrossRunsAndWorkers(t *testing.T) {
	base, _ := renderReport(t, testConfig(t, 1, nil))
	for _, w := range []int{1, 0, 7} {
		got, _ := renderReport(t, testConfig(t, w, nil))
		if got != base {
			t.Fatalf("report differs with %d workers:\n--- serial ---\n%s--- workers=%d ---\n%s",
				w, base, w, got)
		}
	}
}

func TestRunMetricsMatchReport(t *testing.T) {
	o := obs.NewObserver()
	_, rep := renderReport(t, testConfig(t, 0, o))
	var sub, done uint64
	for _, dev := range []string{"v100-a", "v100-b"} {
		sub += o.Metrics().Counter("serve_requests_total", obs.L("device", dev)).Value()
		done += o.Metrics().Counter("serve_responses_total", obs.L("device", dev)).Value()
	}
	if sub != uint64(rep.Submitted) || done != uint64(rep.Completed) {
		t.Errorf("metrics disagree with report: submitted %d vs %d, completed %d vs %d",
			sub, rep.Submitted, done, rep.Completed)
	}
	if o.Metrics().Histogram("serve_latency_s", nil, obs.L("device", "v100-a")).Count() == 0 {
		t.Error("latency histogram empty")
	}
}

func TestRunObserverDoesNotChangeReport(t *testing.T) {
	plain, _ := renderReport(t, testConfig(t, 0, nil))
	observed, _ := renderReport(t, testConfig(t, 0, obs.NewObserver()))
	if plain != observed {
		t.Error("attaching an observer changed the report bytes")
	}
}

func TestBatchedAdviceBitIdenticalToSingle(t *testing.T) {
	reg := NewRegistry("v100")
	if _, err := reg.Publish("ligen", testPayload(t, 7)); err != nil {
		t.Fatal(err)
	}
	e, ok := reg.Lookup("ligen")
	if !ok {
		t.Fatal("lookup failed")
	}
	curves, err := e.Model.PredictCurvesBatch(testShapeFeatures, testFreqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range testShapeFeatures {
		deadline := 2 * testShapes()[i].NominalS
		single, err := e.Advise(f, deadline, testFreqs)
		if err != nil {
			t.Fatal(err)
		}
		if batched := e.AdviseFromCurve(curves[i], deadline); batched != single {
			t.Errorf("input %d: batched advice %+v != single %+v", i, batched, single)
		}
	}
}

// TestAdviseAllocs guards the uncached query path: on the test menu and on
// a menu of core.SmallMenu clocks, Registry.Advise and AdviseFromCurve
// allocate nothing.
func TestAdviseAllocs(t *testing.T) {
	reg := NewRegistry("v100")
	if _, err := reg.Publish("ligen", testPayload(t, 7)); err != nil {
		t.Fatal(err)
	}
	e, _ := reg.Lookup("ligen")
	wide := make([]int, core.SmallMenu)
	for i := range wide {
		wide[i] = 700 + 25*i
	}
	feats := testShapeFeatures[2]
	deadline := 2 * testShapes()[2].NominalS
	for _, freqs := range [][]int{testFreqs, wide} {
		curve := e.Model.PredictCurves(feats, freqs)
		for _, c := range []struct {
			name string
			call func()
		}{
			{"Registry.Advise", func() {
				if _, err := reg.Advise("ligen", feats, deadline, freqs); err != nil {
					t.Fatal(err)
				}
			}},
			{"Entry.AdviseFromCurve", func() { e.AdviseFromCurve(curve, deadline) }},
		} {
			if avg := testing.AllocsPerRun(100, c.call); avg != 0 {
				t.Errorf("%s on a %d-clock menu allocates %.1f objects per call, want 0", c.name, len(freqs), avg)
			}
		}
	}
}

// TestAdviseOnParetoMatchesFront holds AdviseFromCurve's OnPareto to its
// definition, membership of the recommended clock in pareto.Front of the
// curve, on random curves over a few clocks (so clocks repeat) whose
// values come from a palette of two NaN payloads, ±Inf, ±0, a subnormal
// and tied values, on menus both within and beyond core.SmallMenu.
func TestAdviseOnParetoMatchesFront(t *testing.T) {
	palette := []float64{
		math.NaN(), math.Float64frombits(0xfff8_0000_0000_0bad), math.Inf(1), math.Inf(-1),
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 0.5, 1, 1.25, 2,
	}
	clocks := []int{800, 1000, 1200, 1380}
	rng := xrand.New(25)
	pick := func() float64 { return palette[rng.Intn(len(palette))] }
	e := &Entry{App: "ligen", Device: "v100", Version: 1}
	onFront := 0
	for trial := 0; trial < 4000; trial++ {
		curve := make([]core.CurvePoint, 1+rng.Intn(2*core.SmallMenu))
		pts := make([]pareto.Point, len(curve))
		for i := range curve {
			curve[i] = core.CurvePoint{FreqMHz: clocks[rng.Intn(len(clocks))],
				Speedup: pick(), NormEnergy: pick(), TimeS: pick(), EnergyJ: pick()}
			pts[i] = pareto.Point{FreqMHz: curve[i].FreqMHz, Speedup: curve[i].Speedup, NormEnergy: curve[i].NormEnergy}
		}
		resp := e.AdviseFromCurve(curve, pick())
		want := slices.ContainsFunc(pareto.Front(pts), func(p pareto.Point) bool { return p.FreqMHz == resp.RecommendedMHz })
		if resp.OnPareto != want {
			t.Fatalf("trial %d: OnPareto = %v for %d MHz, Front membership %v; curve %+v", trial, resp.OnPareto, resp.RecommendedMHz, want, curve)
		}
		if want {
			onFront++
		}
	}
	if onFront == 0 || onFront == 4000 {
		t.Fatalf("%d of 4000 recommendations on the front: the curves exercise only one answer", onFront)
	}
}

// TestMaxBatchClosesEarly floods one shard with distinct inputs, so one
// 2 ms batch window collects more misses than a batch may hold: the batch
// must close at exactly 64 flights.
func TestMaxBatchClosesEarly(t *testing.T) {
	shapes := make([]Shape, 400)
	for i := range shapes {
		shapes[i] = Shape{App: "ligen", Features: []float64{float64(1024 + i), 8, 63}, NominalS: 0.01}
	}
	cfg := Config{
		Shards: []ShardConfig{{
			Device: "v100",
			Freqs:  testFreqs,
			Models: map[string][]byte{"ligen": testPayload(t, 1)},
			Shapes: shapes,
			// 2000 arrivals about 1 µs apart all land in the first window.
			Load: Load{Mode: "open", Requests: 2000, MeanInterarrivalS: 1e-6},
		}},
		Seed:    1,
		Workers: 1,
	}
	_, rep := renderReport(t, cfg)
	if rep.MaxBatchLen != 64 {
		t.Errorf("largest batch held %d flights, want exactly 64", rep.MaxBatchLen)
	}
	if rep.Completed+rep.Rejected != rep.Submitted {
		t.Errorf("lost requests under size-closed batching")
	}
}

func TestRunRejectsBadConfigs(t *testing.T) {
	base := testConfig(t, 1, nil)
	nan, inf := math.NaN(), math.Inf(1)
	for name, mutate := range map[string]func(*Config){
		"no shards":     func(c *Config) { c.Shards = nil },
		"empty device":  func(c *Config) { c.Shards[0].Device = "" },
		"no freqs":      func(c *Config) { c.Shards[0].Freqs = nil },
		"no shapes":     func(c *Config) { c.Shards[0].Shapes = nil },
		"bad load mode": func(c *Config) { c.Shards[0].Load.Mode = "sideways" },
		"corrupt initial model": func(c *Config) {
			c.Shards[0].Models = map[string][]byte{"ligen": []byte(`{"schema":{}}`)}
		},

		"negative Requests":          func(c *Config) { c.Shards[0].Load.Requests = -1 },
		"negative Clients":           func(c *Config) { c.Shards[1].Load.Clients = -1 },
		"negative RequestsPerClient": func(c *Config) { c.Shards[1].Load.RequestsPerClient = -5 },
		"closed budget overflows": func(c *Config) {
			c.Shards[1].Load.Clients, c.Shards[1].Load.RequestsPerClient = 1<<40, 1<<40
		},
		"negative MalformedEvery":    func(c *Config) { c.Shards[0].Load.MalformedEvery = -500 },
		"NaN MeanInterarrivalS":      func(c *Config) { c.Shards[0].Load.MeanInterarrivalS = nan },
		"negative MeanInterarrivalS": func(c *Config) { c.Shards[0].Load.MeanInterarrivalS = -0.0005 },
		"infinite MeanInterarrivalS": func(c *Config) { c.Shards[0].Load.MeanInterarrivalS = inf },
		"NaN MeanThinkS":             func(c *Config) { c.Shards[1].Load.MeanThinkS = nan },
		"negative MeanThinkS":        func(c *Config) { c.Shards[1].Load.MeanThinkS = -1 },
		"NaN tier":                   func(c *Config) { c.Shards[0].Load.Tiers = []float64{2, nan} },
		"negative tier":              func(c *Config) { c.Shards[0].Load.Tiers = []float64{-2} },
		"infinite tier":              func(c *Config) { c.Shards[0].Load.Tiers = []float64{inf} },
		"NaN reload time": func(c *Config) {
			c.Shards[0].Reloads = []Reload{{AtS: nan, App: "ligen", Payload: base.Shards[0].Reloads[0].Payload}}
		},
		"negative reload time": func(c *Config) {
			c.Shards[0].Reloads = []Reload{{AtS: -1, App: "ligen", Payload: base.Shards[0].Reloads[0].Payload}}
		},
		"infinite reload time": func(c *Config) {
			c.Shards[0].Reloads = []Reload{{AtS: inf, App: "ligen", Payload: base.Shards[0].Reloads[0].Payload}}
		},
	} {
		cfg := base
		cfg.Shards = append([]ShardConfig(nil), base.Shards...)
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestRunZeroSelectsDefaults pins the other side of the load checks: empty
// tiers are accepted and run as the documented default tiers.
func TestRunZeroSelectsDefaults(t *testing.T) {
	explicit := testConfig(t, 1, nil)
	explicit.Shards = append([]ShardConfig(nil), explicit.Shards...)
	explicit.Shards[0].Load.Tiers = []float64{2, 4, 8}
	want, _ := renderReport(t, explicit)
	got, _ := renderReport(t, testConfig(t, 1, nil))
	if got != want {
		t.Errorf("zero config fields do not select their defaults:\n--- explicit ---\n%s--- zero ---\n%s", want, got)
	}
}

func TestAdviseMeetsDeadlineOrEscalates(t *testing.T) {
	reg := NewRegistry("v100")
	if _, err := reg.Publish("ligen", testPayload(t, 7)); err != nil {
		t.Fatal(err)
	}
	feats := testShapeFeatures[2]
	nominal := feats[0] * feats[1] * feats[2] / 4e6

	// Loose deadline: the advisor should find a feasible clock and pick the
	// cheapest, not the fastest.
	loose, err := reg.Advise("ligen", feats, 10*nominal, testFreqs)
	if err != nil {
		t.Fatal(err)
	}
	if loose.Escalated {
		t.Errorf("loose deadline escalated: %+v", loose)
	}
	if loose.PredTimeS > 10*nominal {
		t.Errorf("recommendation predicted to miss its deadline: %+v", loose)
	}
	if loose.PredEnergyJ > loose.PredEnergyMaxJ {
		t.Errorf("recommendation predicted to cost more than maxfreq: %+v", loose)
	}

	// Impossible deadline: escalate to the fastest predicted clock.
	tight, err := reg.Advise("ligen", feats, nominal/1000, testFreqs)
	if err != nil {
		t.Fatal(err)
	}
	if !tight.Escalated {
		t.Errorf("impossible deadline did not escalate: %+v", tight)
	}
}

func TestRegistryAdviseErrors(t *testing.T) {
	reg := NewRegistry("v100")
	if _, err := reg.Advise("ligen", testShapeFeatures[0], 1, testFreqs); !errors.Is(err, ErrNoModel) {
		t.Errorf("empty registry: got %v, want ErrNoModel", err)
	}
	if _, err := reg.Publish("ligen", testPayload(t, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Advise("ligen", []float64{1, 2}, 1, testFreqs); !errors.Is(err, ErrBadRequest) {
		t.Errorf("short features: got %v, want ErrBadRequest", err)
	}
	if _, err := reg.Advise("ligen", testShapeFeatures[0], 1, nil); !errors.Is(err, ErrBadRequest) {
		t.Errorf("no freqs: got %v, want ErrBadRequest", err)
	}
	if _, err := reg.Advise("cronos", testShapeFeatures[0], 1, testFreqs); !errors.Is(err, ErrNoModel) {
		t.Errorf("unknown app: got %v, want ErrNoModel", err)
	}
}

func TestRegistryRejectsCorruptAndKeepsServing(t *testing.T) {
	reg := NewRegistry("v100")
	if _, err := reg.Publish("ligen", testPayload(t, 3)); err != nil {
		t.Fatal(err)
	}
	before, err := reg.Advise("ligen", testShapeFeatures[0], 1, testFreqs)
	if err != nil {
		t.Fatal(err)
	}

	// Every corrupt upload must fail with the typed error and leave the
	// serving version untouched.
	valid := testPayload(t, 3)
	corrupts := map[string][]byte{
		"truncated": valid[:len(valid)/2],
		"garbage":   []byte("not json"),
		"retired lasso kind": []byte(
			`{"schema":{"App":"ligen","Features":["a","b","c"]},"device":"v100",` +
				`"baseline_freq_mhz":1380,` +
				`"time_model":{"kind":"lasso","payload":{"alpha":1}},` +
				`"energy_model":{"kind":"lasso","payload":{"alpha":1}}}`),
	}
	for name, payload := range corrupts {
		if _, err := reg.Publish("ligen", payload); err == nil {
			t.Errorf("%s: corrupt payload published", name)
		} else if name == "retired lasso kind" && !errors.Is(err, ml.ErrCorruptModel) {
			t.Errorf("%s: error %v does not wrap ml.ErrCorruptModel", name, err)
		}
	}
	after, err := reg.Advise("ligen", testShapeFeatures[0], 1, testFreqs)
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Errorf("rejected publishes perturbed the serving version: %+v vs %+v", after, before)
	}
	if after.Version != 1 {
		t.Errorf("version advanced past rejected publishes: %d", after.Version)
	}
}

func TestRegistryRejectsNormalizedModel(t *testing.T) {
	m, err := core.TrainNormalized(testDataset(), ml.Spec{
		Algorithm: "forest", Params: map[string]float64{"n_estimators": 5},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry("v100")
	if _, err := reg.Publish("ligen", buf.Bytes()); err == nil ||
		!strings.Contains(err.Error(), "normalized") {
		t.Errorf("normalized model published: %v", err)
	}
}

func TestRegistryVersioning(t *testing.T) {
	reg := NewRegistry("v100")
	for want := 1; want <= 3; want++ {
		ver, err := reg.Publish("ligen", testPayload(t, uint64(want)))
		if err != nil {
			t.Fatal(err)
		}
		if ver != want {
			t.Errorf("publish %d returned version %d", want, ver)
		}
	}
	if _, err := reg.Publish("cronos", testPayload(t, 9)); err != nil {
		t.Fatal(err)
	}
	if apps := reg.Apps(); len(apps) != 2 || apps[0] != "cronos" || apps[1] != "ligen" {
		t.Errorf("Apps() = %v", apps)
	}
	e, _ := reg.Lookup("cronos")
	if e.Version != 1 {
		t.Errorf("per-app version not independent: cronos at %d", e.Version)
	}
}

func TestLRU(t *testing.T) {
	c := newLRU(2)
	c.put(1, Response{Version: 1}, 0)
	c.put(2, Response{Version: 2}, 0)
	if c.get(1) == nil {
		t.Fatal("id 1 evicted early")
	}
	c.put(3, Response{Version: 3}, 0) // id 2 is now the LRU tail
	if c.get(2) != nil {
		t.Error("id 2 survived past capacity")
	}
	if c.get(1) == nil {
		t.Error("recently used id 1 evicted")
	}
	if c.get(7) != nil {
		t.Error("an id past every put hit")
	}
	if len(c.ents) != 2 {
		t.Errorf("len = %d, want 2", len(c.ents))
	}
	c.put(1, Response{Version: 9}, 4)
	if e := c.get(1); e == nil || e.resp.Version != 9 || e.version != 4 {
		t.Errorf("put did not update existing id: %+v", e)
	}
	if len(c.ents) != 2 {
		t.Errorf("update changed len to %d", len(c.ents))
	}
}

// TestLRUMatchesListOrder replays a random get/put stream against a
// container/list reference LRU: hits, misses and eviction order must agree
// at every step.
func TestLRUMatchesListOrder(t *testing.T) {
	for _, capacity := range []int{1, 2, 5} {
		c := newLRU(capacity)
		ref := list.New() // front = most recently used
		rng := xrand.New(uint64(capacity))
		for step := 0; step < 5000; step++ {
			id := int32(rng.Intn(3 * capacity))
			var el *list.Element
			for e := ref.Front(); e != nil; e = e.Next() {
				if e.Value.(int32) == id {
					el = e
				}
			}
			if rng.Intn(2) == 0 {
				got := c.get(id)
				if (got != nil) != (el != nil) {
					t.Fatalf("cap %d step %d: get(%d) hit=%v, reference hit=%v", capacity, step, id, got != nil, el != nil)
				}
				if el != nil {
					ref.MoveToFront(el)
				}
				continue
			}
			c.put(id, Response{}, 0)
			if el != nil {
				ref.MoveToFront(el)
			} else {
				ref.PushFront(id)
				if ref.Len() > capacity {
					ref.Remove(ref.Back())
				}
			}
			i := c.head
			for e := ref.Front(); e != nil; e = e.Next() {
				if i < 0 || c.ents[i].id != e.Value.(int32) {
					t.Fatalf("cap %d step %d: recency order differs from the reference", capacity, step)
				}
				i = c.ents[i].next
			}
			cached := 0
			for _, j := range c.items {
				if j >= 0 {
					cached++
				}
			}
			if i >= 0 || cached != ref.Len() || len(c.ents) != ref.Len() {
				t.Fatalf("cap %d step %d: cache maps %d ids to %d entries, reference holds %d", capacity, step, cached, len(c.ents), ref.Len())
			}
		}
	}
}

// Apps returns the published application names, sorted.
func (r *Registry) Apps() []string {
	snap := *r.snap.Load()
	out := make([]string, 0, len(snap))
	for app := range snap {
		out = append(out, app)
	}
	sort.Strings(out)
	return out
}

// TestSharedDecode covers decodeModels' dedupe: two shards whose initial
// payloads are equal bytes in distinct slices install one *core.Model, a
// torn reload is rejected only on its own shard, and the reports agree at
// 1 and 4 workers.
func TestSharedDecode(t *testing.T) {
	pa, pb := testPayload(t, 1), testPayload(t, 1)
	if !bytes.Equal(pa, pb) || &pa[0] == &pb[0] {
		t.Fatal("want two equal payloads in distinct slices")
	}
	v2 := testPayload(t, 2)
	shards := []ShardConfig{
		{
			Device:  "v100-a",
			Freqs:   testFreqs,
			Models:  map[string][]byte{"ligen": pa},
			Reloads: []Reload{{AtS: 1.0, App: "ligen", Payload: v2[:40]}},
			Shapes:  testShapes(),
			Load:    Load{Mode: "open", Requests: 4000},
		},
		{
			Device:  "v100-b",
			Freqs:   testFreqs,
			Models:  map[string][]byte{"ligen": pb},
			Reloads: []Reload{{AtS: 1.0, App: "ligen", Payload: v2}},
			Shapes:  testShapes(),
			Load:    Load{Mode: "closed", Clients: 4, RequestsPerClient: 1000},
		},
	}
	models, err := decodeModels(shards, 4)
	if err != nil {
		t.Fatal(err)
	}
	var entries [2]*Entry
	for i, sc := range shards {
		s, err := newShard(sc, models[i], xrand.New(1), nil)
		if err != nil {
			t.Fatal(err)
		}
		entries[i], _ = s.reg.Lookup("ligen")
	}
	if entries[0].Model != entries[1].Model {
		t.Error("equal payloads decoded into two models")
	}
	if models[0][1].err == nil || models[1][1].err != nil {
		t.Fatalf("reload decodes: torn err=%v, whole err=%v", models[0][1].err, models[1][1].err)
	}

	var base string
	for _, w := range []int{1, 4} {
		o := obs.NewObserver()
		text, rep := renderReport(t, Config{Shards: shards, Seed: 5, Workers: w, Obs: o})
		if w == 1 {
			base = text
		} else if text != base {
			t.Errorf("report differs at %d workers:\n--- 1 ---\n%s--- %d ---\n%s", w, base, w, text)
		}
		if rep.Reloads != 1 || rep.ReloadsRejected != 1 {
			t.Errorf("workers %d: %d reloads published, %d rejected; want 1 and 1", w, rep.Reloads, rep.ReloadsRejected)
		}
		for dev, want := range map[string][2]uint64{"v100-a": {0, 1}, "v100-b": {1, 0}} {
			ok := o.Metrics().Counter("serve_reloads_total", obs.L("device", dev), obs.L("outcome", "published")).Value()
			rej := o.Metrics().Counter("serve_reloads_total", obs.L("device", dev), obs.L("outcome", "rejected")).Value()
			if ok != want[0] || rej != want[1] {
				t.Errorf("workers %d: %s published %d, rejected %d; want %d and %d", w, dev, ok, rej, want[0], want[1])
			}
		}
		rejected := 0
		for _, sp := range o.Trace().Spans() {
			if sp.Name == "serve.reload.rejected" {
				rejected++
				if sp.DurS != 1.0 || !slices.Contains(sp.Attrs, obs.L("device", "v100-a")) {
					t.Errorf("workers %d: rejection recorded as %+v", w, sp)
				}
			}
		}
		if rejected != 1 {
			t.Errorf("workers %d: %d rejection trace records, want 1", w, rejected)
		}
	}
}

// TestBlockDrawsMatchOneAtATime checks the request streams against the
// one-at-a-time draws they replace. For open and closed streams of 0, 1,
// 63, 64, 65 and 10,000 requests, built the way a shard builds them, each
// request's gap (by its bits) and cell equal those of a reference that
// draws gap, shape and tier request by request from an equal rng; the
// stream ends at its budget, and its rng has then drawn exactly what the
// reference has.
func TestBlockDrawsMatchOneAtATime(t *testing.T) {
	shapes := testShapes()
	load := Load{}.withDefaults()
	tiers := len(load.Tiers)
	check := func(name string, st *stream, ref *xrand.Rand, n int, meanS float64) {
		t.Helper()
		for k := 0; k < n; k++ {
			gap, cell, ok := st.take(len(shapes), tiers)
			wantGap := -meanS * math.Log(1-ref.Float64())
			u := ref.Float64()
			idx := min(int(u*u*float64(len(shapes))), len(shapes)-1)
			wantCell := int32(2 * (idx*tiers + ref.Intn(tiers)))
			if !ok || math.Float64bits(gap) != math.Float64bits(wantGap) || cell != wantCell {
				t.Fatalf("%s, %d requests: request %d drew (%v, %d, %v), want (%v, %d, true)",
					name, n, k, gap, cell, ok, wantGap, wantCell)
			}
		}
		if _, _, ok := st.take(len(shapes), tiers); ok {
			t.Errorf("%s: a stream of %d requests gave one more", name, n)
		}
		if st.rng.Uint64() != ref.Uint64() {
			t.Errorf("%s: a stream of %d requests drew more or less than its requests need", name, n)
		}
	}
	for _, n := range []int{0, 1, 63, 64, 65, 10_000} {
		if n == 0 { // a zero Load count selects its default, so no shard has an empty stream
			open := newStream(xrand.New(1), 0, load.MeanInterarrivalS)
			check("open", &open, xrand.New(1), 0, load.MeanInterarrivalS)
			closed := newStream(xrand.New(1), 0, load.MeanThinkS)
			check("closed", &closed, xrand.New(1), 0, load.MeanThinkS)
			continue
		}
		sc := ShardConfig{Device: "v100", Freqs: testFreqs, Shapes: shapes}
		sc.Load = Load{Mode: "open", Requests: n}
		s := testShard(t, sc)
		check("open", &s.arrivals, xrand.New(1), n, load.MeanInterarrivalS)

		sc.Load = Load{Mode: "closed", Clients: 3, RequestsPerClient: n}
		s = testShard(t, sc)
		for i, ref := range xrand.New(1).Split().SplitN(3) {
			check(fmt.Sprintf("closed client %d", i), &s.clients[i], ref, n, load.MeanThinkS)
		}
	}
}
