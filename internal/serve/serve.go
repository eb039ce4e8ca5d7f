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
// core.AppendInputKey of the features and the deadline), built in a buffer
// each shard reuses, so a cache hit formats nothing and allocates no key.
// Each shard's loop pops its events from an internal/eventq queue in
// (time, push order). A closed- and open-loop synthetic load generator drives
// the service to millions of requests per campaign, per-device shards fan
// out through internal/parallel, and p50/p99 latency plus throughput
// publish through internal/obs.
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
	// BatchWindowS bounds how long a batch stays open collecting misses
	// (default 0.002 simulated seconds).
	BatchWindowS float64
	// MaxBatch closes a batch early at this many coalesced flights
	// (default 64).
	MaxBatch int
	// CacheCap bounds the per-shard LRU response cache (default 256
	// entries).
	CacheCap int
	// CacheHitS is the response time of a cache hit — and of a rejected
	// request, which takes the same short path (default 0.0002).
	CacheHitS float64
	// BatchBaseS + BatchPerReqS x flights is the batch compute time
	// (defaults 0.001 and 0.0001).
	BatchBaseS   float64
	BatchPerReqS float64
	// Seed drives every stochastic draw of the load.
	Seed uint64
	// Workers bounds the shard goroutines (0 = GOMAXPROCS, 1 = serial);
	// the report is byte-identical for every value.
	Workers int
	// Obs is an optional observability sink; nil disables instrumentation
	// without changing one byte of the report.
	Obs *obs.Observer
}

func (c Config) withDefaults() Config {
	if c.BatchWindowS == 0 {
		c.BatchWindowS = 0.002
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 64
	}
	if c.CacheCap == 0 {
		c.CacheCap = 256
	}
	if c.CacheHitS == 0 {
		c.CacheHitS = 0.0002
	}
	if c.BatchBaseS == 0 {
		c.BatchBaseS = 0.001
	}
	if c.BatchPerReqS == 0 {
		c.BatchPerReqS = 0.0001
	}
	return c
}
