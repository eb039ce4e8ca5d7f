package serve

import (
	"bytes"
	"container/list"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"dsenergy/internal/core"
	"dsenergy/internal/ml"
	"dsenergy/internal/obs"
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

func TestMaxBatchClosesEarly(t *testing.T) {
	cfg := testConfig(t, 1, nil)
	cfg.MaxBatch = 2
	cfg.BatchWindowS = 10 // the window never expires first
	_, rep := renderReport(t, cfg)
	if rep.MaxBatchLen > 2 {
		t.Errorf("batch grew past MaxBatch: %d", rep.MaxBatchLen)
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

		"negative MaxBatch":          func(c *Config) { c.MaxBatch = -1 },
		"negative CacheCap":          func(c *Config) { c.CacheCap = -1 },
		"CacheCap past int32":        func(c *Config) { c.CacheCap = math.MaxInt32 + 1 },
		"NaN CacheHitS":              func(c *Config) { c.CacheHitS = nan },
		"negative CacheHitS":         func(c *Config) { c.CacheHitS = -0.001 },
		"infinite BatchWindowS":      func(c *Config) { c.BatchWindowS = inf },
		"NaN BatchWindowS":           func(c *Config) { c.BatchWindowS = nan },
		"negative BatchBaseS":        func(c *Config) { c.BatchBaseS = -1 },
		"infinite BatchBaseS":        func(c *Config) { c.BatchBaseS = inf },
		"NaN BatchPerReqS":           func(c *Config) { c.BatchPerReqS = nan },
		"negative BatchPerReqS":      func(c *Config) { c.BatchPerReqS = -1e-4 },
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

// TestRunZeroSelectsDefaults pins the other side of the config checks: a
// zero in each defaulted Config field and empty tiers are accepted and run
// as the documented defaults.
func TestRunZeroSelectsDefaults(t *testing.T) {
	explicit := testConfig(t, 1, nil)
	explicit.BatchWindowS, explicit.MaxBatch, explicit.CacheCap = 0.002, 64, 256
	explicit.CacheHitS, explicit.BatchBaseS, explicit.BatchPerReqS = 0.0002, 0.001, 0.0001
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
		"empty lasso time model": []byte(
			`{"schema":{"App":"ligen","Features":["a","b","c"]},"device":"v100",` +
				`"baseline_freq_mhz":1380,` +
				`"time_model":{"kind":"lasso","payload":{"alpha":1}},` +
				`"energy_model":{"kind":"lasso","payload":{"alpha":1}}}`),
	}
	for name, payload := range corrupts {
		if _, err := reg.Publish("ligen", payload); err == nil {
			t.Errorf("%s: corrupt payload published", name)
		} else if name == "empty lasso time model" && !errors.Is(err, ml.ErrCorruptModel) {
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
	k := func(i int) []byte { return fmt.Appendf(nil, "k%d", i) }
	c.put(string(k(1)), Response{Version: 1}, 0)
	c.put(string(k(2)), Response{Version: 2}, 0)
	if c.get(k(1)) == nil {
		t.Fatal("k1 evicted early")
	}
	c.put(string(k(3)), Response{Version: 3}, 0) // k2 is now the LRU tail
	if c.get(k(2)) != nil {
		t.Error("k2 survived past capacity")
	}
	if c.get(k(1)) == nil {
		t.Error("recently used k1 evicted")
	}
	if len(c.items) != 2 {
		t.Errorf("len = %d, want 2", len(c.items))
	}
	c.put(string(k(1)), Response{Version: 9}, 4)
	if e := c.get(k(1)); e == nil || e.resp.Version != 9 || e.version != 4 {
		t.Errorf("put did not update existing key: %+v", e)
	}
	if len(c.items) != 2 {
		t.Errorf("update changed len to %d", len(c.items))
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
			key := fmt.Appendf(nil, "k%d", rng.Intn(3*capacity))
			var el *list.Element
			for e := ref.Front(); e != nil; e = e.Next() {
				if e.Value.(string) == string(key) {
					el = e
				}
			}
			if rng.Intn(2) == 0 {
				got := c.get(key)
				if (got != nil) != (el != nil) {
					t.Fatalf("cap %d step %d: get(%s) hit=%v, reference hit=%v", capacity, step, key, got != nil, el != nil)
				}
				if el != nil {
					ref.MoveToFront(el)
				}
				continue
			}
			c.put(string(key), Response{}, 0)
			if el != nil {
				ref.MoveToFront(el)
			} else {
				ref.PushFront(string(key))
				if ref.Len() > capacity {
					ref.Remove(ref.Back())
				}
			}
			i := c.head
			for e := ref.Front(); e != nil; e = e.Next() {
				if i < 0 || c.ents[i].key != e.Value.(string) {
					t.Fatalf("cap %d step %d: recency order differs from the reference", capacity, step)
				}
				i = c.ents[i].next
			}
			if i >= 0 || len(c.items) != ref.Len() {
				t.Fatalf("cap %d step %d: cache holds %d entries, reference %d", capacity, step, len(c.items), ref.Len())
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
