// Package serve is the frequency-advisor service: the paper's trained
// time/energy predictors (§4) deployed as a long-running online system in
// the spirit of DSO's online GPU energy optimizer. A model registry keyed by
// (app, device) holds versioned domain-specific models loaded from their
// persisted form (core.LoadModel over internal/ml/persist.go) behind an
// RCU-style atomic pointer, so new versions hot-swap in while in-flight
// readers drain on the old one and a corrupt upload is rejected without
// touching the serving version. The request path answers advisory queries —
// "this input shape, deadline d: which clock, and what will it cost?" — by
// coalescing concurrent misses into core.Model.PredictCurvesBatch calls (a
// bounded batch window in simulated time; each input's curve is one tree
// walk across the clock menu) behind an LRU cache with single-flight miss
// semantics. Both key a request by its bits (app, model version,
// core.AppendInputKey of the features and the deadline). A request's key
// depends only on its cell — its (shape, deadline tier, malformed) class —
// and the serving version of the shape's app, so each shard builds every
// cell's key once per publish and interns it to a dense int32 id; the LRU
// and the single-flight table index that id, so no request hashes its key.
// Run decodes each distinct model payload once, on the pool, before the
// shards start, and shards that publish equal bytes share the decoded
// model read-only; a payload is one JSON document whose forests are flat
// preorder arrays, read by one decode and one validating pass per tree.
// Each shard's loop pops pointer-free events (a kind and an int32 slot)
// from an internal/eventq queue in (time, push order).
// Requests, flights and batches live in per-shard slabs recycled through
// free lists, each model version's response count lives in a slot resolved
// once per miss, the latency buffer is sized once from the shard's request
// budget, and the LRU is an index-linked list over a fixed array, so a
// cache-hit request allocates nothing. An uncached Registry.Advise
// allocates nothing either on a menu of up to core.SmallMenu clocks: its
// curve and its Pareto check live on the stack. A closed- and open-loop
// synthetic load generator drives the service to millions of requests per
// campaign. Each generator, a shard's open loop or one closed-loop client,
// draws its requests' gaps, shapes and tiers 64 requests ahead from its
// own rng, in the order drawing one request at a time would, so the
// logarithms of a block wait neither on each other nor on the event loop.
// Per-device shards fan out through internal/parallel, and
// p50/p99 latency plus throughput publish through internal/obs: each shard
// sorts its own latencies, and the merge reads the percentiles from the
// sorted runs.
//
// Everything runs on simulated time and seeded randomness: a fixed Config
// produces a byte-identical Report for any worker count.
package serve

import (
	"errors"

	"dsenergy/internal/obs"
)

// Typed request-path errors. Callers branch with errors.Is; both mean the
// request was refused, never answered with a silent zero prediction.
var (
	// ErrNoModel reports that the registry has no published model for the
	// requested application on this device.
	ErrNoModel = errors.New("serve: no model published for app")
	// ErrBadRequest reports a request whose feature vector disagrees with
	// the serving model's schema width.
	ErrBadRequest = errors.New("serve: request shape disagrees with model schema")
)

// Response is one advisory answer: the recommended core clock for the
// request's deadline, the model's cost prediction at that clock, and the
// provenance (which model version answered).
type Response struct {
	App     string
	Device  string
	Version int
	// RecommendedMHz is the chosen clock: minimum predicted energy among
	// candidates predicted to meet the deadline, or the fastest predicted
	// clock when none does (Escalated).
	RecommendedMHz int
	PredTimeS      float64
	PredEnergyJ    float64
	// PredEnergyMaxJ is the predicted energy at the fastest candidate
	// clock — the max-frequency baseline the recommendation saves against.
	PredEnergyMaxJ float64
	// OnPareto reports whether the recommended clock sits on the predicted
	// speedup/normalized-energy Pareto front of the candidate set.
	OnPareto  bool
	Escalated bool
}

// Shape is one entry of a shard's request universe: an application input
// with its domain-specific features and the nominal f_max execution time
// deadlines are sized from (a property of the load, not of any model).
type Shape struct {
	App      string
	Features []float64
	NominalS float64
}

// Reload is a scheduled model publication: at AtS (simulated seconds) the
// payload is offered to the shard's registry. A corrupt payload is rejected
// and the previous version keeps serving.
type Reload struct {
	AtS     float64
	App     string
	Payload []byte
}

// Load configures a shard's synthetic request generator. The zero value of
// every field selects the documented default.
type Load struct {
	// Mode is "open" (exponential arrivals, fixed request count) or
	// "closed" (a fixed client population, each issuing its next request an
	// exponential think time after the previous response). Default "open".
	Mode string
	// Requests is the open-loop request count (default 50000).
	Requests int
	// MeanInterarrivalS is the open-loop mean gap (default 0.0005 — 2000
	// requests per simulated second per shard).
	MeanInterarrivalS float64
	// Clients is the closed-loop population size (default 8).
	Clients int
	// RequestsPerClient bounds each closed-loop client (default 1000).
	RequestsPerClient int
	// MeanThinkS is the closed-loop mean think time (default 0.002).
	MeanThinkS float64
	// Tiers are the deadline slack multipliers: a request's advisory
	// deadline is tier x shape.NominalS (default 2, 4, 8).
	Tiers []float64
	// MalformedEvery, when positive, truncates every Nth request's feature
	// vector — the mis-shaped client the admission check must reject.
	MalformedEvery int
}

func (l Load) withDefaults() Load {
	if l.Mode == "" {
		l.Mode = "open"
	}
	if l.Requests == 0 {
		l.Requests = 50000
	}
	if l.MeanInterarrivalS == 0 {
		l.MeanInterarrivalS = 0.0005
	}
	if l.Clients == 0 {
		l.Clients = 8
	}
	if l.RequestsPerClient == 0 {
		l.RequestsPerClient = 1000
	}
	if l.MeanThinkS == 0 {
		l.MeanThinkS = 0.002
	}
	if len(l.Tiers) == 0 {
		l.Tiers = []float64{2, 4, 8}
	}
	return l
}

// ShardConfig is one device's slice of the service: its initial models, its
// candidate clocks, its request universe, its load, and any scheduled
// reloads. Shards are independent — the unit internal/parallel fans out.
type ShardConfig struct {
	Device string
	// Freqs are the candidate core clocks (sorted ascending internally).
	Freqs []int
	// Models maps app name to a persisted core.Model payload (Model.Save
	// bytes) published as version 1 before the load starts.
	Models map[string][]byte
	// Reloads are scheduled mid-load publications.
	Reloads []Reload
	// Shapes is the request universe the load generator draws from.
	Shapes []Shape
	Load   Load
}

// Config drives one service campaign.
type Config struct {
	Shards []ShardConfig
	// Seed drives every stochastic draw of the load.
	Seed uint64
	// Workers bounds the shard goroutines (0 = GOMAXPROCS, 1 = serial);
	// the report is byte-identical for every value.
	Workers int
	// Obs is an optional observability sink; nil disables instrumentation
	// without changing one byte of the report.
	Obs *obs.Observer
}

// BatchWindowS bounds how long a batch stays open collecting misses, in
// simulated seconds.
const BatchWindowS float64 = 0.002

// MaxBatch closes a batch early at this many coalesced flights.
const MaxBatch = 64

// CacheCap bounds each shard's LRU response cache, in entries.
const CacheCap = 256

// CacheHitS is the response time of a cache hit — and of a rejected
// request, which takes the same short path.
const CacheHitS float64 = 0.0002

// BatchBaseS + BatchPerReqS x flights is the batch compute time.
const (
	BatchBaseS   float64 = 0.001
	BatchPerReqS float64 = 0.0001
)
