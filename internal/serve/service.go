package serve

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strconv"

	"dsenergy/internal/core"
	"dsenergy/internal/eventq"
	"dsenergy/internal/obs"
	"dsenergy/internal/parallel"
	"dsenergy/internal/xrand"
)

// Run drives the configured load through every shard and merges the
// per-shard accounting into one Report. Shards are independent simulations
// on their own pre-split randomness, so the pool fan-out is byte-identical
// to the serial loop for any worker count.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("serve: no shards configured")
	}
	rngs := xrand.New(cfg.Seed).SplitN(len(cfg.Shards))
	children := cfg.Obs.ForkN(len(cfg.Shards))
	results, err := parallel.Map(context.Background(), len(cfg.Shards), cfg.Workers,
		func(_ context.Context, i int) (*shardResult, error) {
			return runShard(cfg, cfg.Shards[i], rngs[i], children[i])
		})
	if err != nil {
		return nil, err
	}
	cfg.Obs.AbsorbAll(children)
	return mergeResults(results), nil
}

// Event kinds of the shard's simulated-time loop.
const (
	evArrive = iota
	evBatchClose
	evBatchDone
	evReload
)

// event is one entry of the shard's event queue, which orders events by
// (time, push order).
type event struct {
	kind   int
	req    *request // evArrive
	batch  *batch   // evBatchClose, evBatchDone
	reload int      // index into ShardConfig.Reloads (evReload)
}

// request is one advisory query in flight through the shard.
type request struct {
	shape     Shape
	tier      float64
	deadlineS float64 // advisory compute deadline: tier x NominalS
	arriveS   float64
	malformed bool
	client    int // closed-loop client index; -1 for open loop
}

// flight is one single-flight computation: the first miss for a key creates
// it, later identical misses pile onto waiters, and everyone is answered
// from the one batched prediction.
type flight struct {
	key       string
	entry     *Entry // model version pinned at flight creation
	features  []float64
	deadlineS float64
	waiters   []*request
}

// batch is one coalescing window of flights bound for one PredictCurvesBatch
// call per model version.
type batch struct {
	flights []*flight
	closed  bool
}

// client is one closed-loop load generator.
type client struct {
	rng    *xrand.Rand
	issued int
}

// versionKey attributes responses to one published model version.
type versionKey struct {
	App     string
	Device  string
	Version int
}

// shardResult is one shard's raw accounting, merged in shard order.
type shardResult struct {
	device                            string
	submitted, completed, rejected    int
	rejectedNoModel, rejectedBadShape int
	cacheHits, coalesced, misses      int
	batches, batchedFlights           int
	batchedRequests, maxBatchLen      int
	reloads, reloadsRejected          int
	escalations, onPareto             int
	predEnergyJ, predEnergyMaxJ       float64
	latencies                         []float64
	lastDoneS                         float64
	perVersion                        map[versionKey]int
}

// shard is the running state of one device's event loop.
type shard struct {
	cfg       Config
	sc        ShardConfig
	load      Load
	freqs     []int
	reg       *Registry
	cache     *lru
	pending   map[string]*flight
	key       []byte // the current request's key, reused across requests
	open      *batch
	events    eventq.Queue[event]
	rng       *xrand.Rand // open-loop arrivals and request content
	remaining int         // open-loop arrivals not yet scheduled
	clients   []*client
	reqs      int // requests generated, for the malformed cadence
	res       *shardResult

	// Instruments (nil-safe when no observer is attached).
	ctrSubmitted  *obs.Counter
	ctrCompleted  *obs.Counter
	ctrHits       *obs.Counter
	ctrCoalesced  *obs.Counter
	ctrBatches    *obs.Counter
	ctrRejNoModel *obs.Counter
	ctrRejShape   *obs.Counter
	ctrReloadOK   *obs.Counter
	ctrReloadRej  *obs.Counter
	histLatency   *obs.Histogram
	trace         *obs.Trace
}

func runShard(cfg Config, sc ShardConfig, rng *xrand.Rand, o *obs.Observer) (*shardResult, error) {
	if sc.Device == "" {
		return nil, fmt.Errorf("serve: shard with empty device name")
	}
	if len(sc.Freqs) == 0 {
		return nil, fmt.Errorf("serve: shard %s has no candidate frequencies", sc.Device)
	}
	if len(sc.Shapes) == 0 {
		return nil, fmt.Errorf("serve: shard %s has no request shapes", sc.Device)
	}
	load := sc.Load.withDefaults()
	if load.Mode != "open" && load.Mode != "closed" {
		return nil, fmt.Errorf("serve: shard %s has unknown load mode %q", sc.Device, load.Mode)
	}
	if o != nil {
		defer o.Profile().Phase("serve.shard").Start()()
	}

	freqs := append([]int(nil), sc.Freqs...)
	sort.Ints(freqs)
	reg := NewRegistry(sc.Device)
	apps := make([]string, 0, len(sc.Models))
	for app := range sc.Models {
		apps = append(apps, app)
	}
	sort.Strings(apps)
	for _, app := range apps {
		if _, err := reg.Publish(app, sc.Models[app]); err != nil {
			return nil, fmt.Errorf("serve: shard %s initial publish: %w", sc.Device, err)
		}
	}

	m := o.Metrics()
	dev := obs.L("device", sc.Device)
	s := &shard{
		cfg:     cfg,
		sc:      sc,
		load:    load,
		freqs:   freqs,
		reg:     reg,
		cache:   newLRU(cfg.CacheCap),
		pending: map[string]*flight{},
		rng:     rng,
		res:     &shardResult{device: sc.Device, perVersion: map[versionKey]int{}},

		ctrSubmitted:  m.Counter("serve_requests_total", dev),
		ctrCompleted:  m.Counter("serve_responses_total", dev),
		ctrHits:       m.Counter("serve_cache_hits_total", dev),
		ctrCoalesced:  m.Counter("serve_coalesced_total", dev),
		ctrBatches:    m.Counter("serve_batches_total", dev),
		ctrRejNoModel: m.Counter("serve_rejected_total", dev, obs.L("reason", "no_model")),
		ctrRejShape:   m.Counter("serve_rejected_total", dev, obs.L("reason", "bad_shape")),
		ctrReloadOK:   m.Counter("serve_reloads_total", dev, obs.L("outcome", "published")),
		ctrReloadRej:  m.Counter("serve_reloads_total", dev, obs.L("outcome", "rejected")),
		histLatency: m.Histogram("serve_latency_s",
			[]float64{0.0005, 0.001, 0.002, 0.005, 0.01, 0.05}, dev),
		trace: o.Trace(),
	}

	for i := range sc.Reloads {
		s.events.Push(sc.Reloads[i].AtS, event{kind: evReload, reload: i})
	}
	switch load.Mode {
	case "open":
		s.remaining = load.Requests
		s.scheduleArrival(0)
	case "closed":
		// Each client owns a pre-split stream: its think times and request
		// content depend only on its own draws and its response times.
		crngs := rng.Split().SplitN(load.Clients)
		s.clients = make([]*client, load.Clients)
		for i := range s.clients {
			s.clients[i] = &client{rng: crngs[i]}
			s.issueFromClient(0, i)
		}
	}

	for s.events.Len() > 0 {
		now, e := s.events.Pop()
		switch e.kind {
		case evArrive:
			s.handleArrive(now, e.req)
		case evBatchClose:
			if !e.batch.closed {
				s.closeBatch(now, e.batch)
			}
		case evBatchDone:
			if err := s.handleBatchDone(now, e.batch); err != nil {
				return nil, err
			}
		case evReload:
			s.handleReload(now, sc.Reloads[e.reload])
		}
	}
	if len(s.pending) != 0 || s.open != nil {
		return nil, fmt.Errorf("serve: shard %s drained with %d stranded flights", sc.Device, len(s.pending))
	}
	s.trace.Add("serve.shard", s.res.lastDoneS, dev,
		obs.L("requests", strconv.Itoa(s.res.submitted)))
	return s.res, nil
}

// scheduleArrival pushes the arrival of the next open-loop request, if any
// remain. At most one open-loop arrival is ever queued, so the shard's
// own rng serves the whole arrival process in order.
func (s *shard) scheduleArrival(nowS float64) {
	if s.remaining <= 0 {
		return
	}
	s.remaining--
	gap := -s.load.MeanInterarrivalS * math.Log(1-s.rng.Float64())
	t := nowS + gap
	s.events.Push(t, event{kind: evArrive, req: s.makeRequest(s.rng, t, -1)})
}

// issueFromClient generates client i's next request at or after nowS.
func (s *shard) issueFromClient(nowS float64, i int) {
	c := s.clients[i]
	if c.issued >= s.load.RequestsPerClient {
		return
	}
	c.issued++
	gap := -s.load.MeanThinkS * math.Log(1-c.rng.Float64())
	t := nowS + gap
	s.events.Push(t, event{kind: evArrive, req: s.makeRequest(c.rng, t, i)})
}

// makeRequest draws one request's content: a popularity-skewed shape (low
// indices dominate, which is what gives the LRU a working set) and a
// deadline tier.
func (s *shard) makeRequest(rng *xrand.Rand, arriveS float64, clientIdx int) *request {
	u := rng.Float64()
	idx := int(u * u * float64(len(s.sc.Shapes)))
	if idx >= len(s.sc.Shapes) {
		idx = len(s.sc.Shapes) - 1
	}
	shape := s.sc.Shapes[idx]
	tier := s.load.Tiers[rng.Intn(len(s.load.Tiers))]
	r := &request{
		shape:     shape,
		tier:      tier,
		deadlineS: tier * shape.NominalS,
		arriveS:   arriveS,
		client:    clientIdx,
	}
	s.reqs++
	if s.load.MalformedEvery > 0 && s.reqs%s.load.MalformedEvery == 0 {
		r.malformed = true
	}
	return r
}

// appendCacheKey appends the identity of a request against the model
// version that will answer it: the app name with a length prefix, the
// version, core.AppendInputKey of the features, then that of the deadline.
// Two requests get the same bytes exactly when they ask the same question
// of the same version (-0 and 0 differ, every NaN is one value, and widths
// differ in length), so the key serves both the LRU and the single-flight
// map. Embedding the version makes hot-reload invalidation free.
func appendCacheKey(b []byte, e *Entry, features []float64, deadlineS float64) []byte {
	b = binary.AppendUvarint(b, uint64(len(e.App)))
	b = append(b, e.App...)
	b = binary.AppendVarint(b, int64(e.Version))
	b = core.AppendInputKey(b, features...)
	return core.AppendInputKey(b, deadlineS)
}

func (s *shard) handleArrive(nowS float64, r *request) {
	if r.client < 0 {
		s.scheduleArrival(nowS)
	}
	s.res.submitted++
	s.ctrSubmitted.Inc()

	feats := r.shape.Features
	if r.malformed && len(feats) > 0 {
		feats = feats[:len(feats)-1]
	}
	e, ok := s.reg.Lookup(r.shape.App)
	if !ok {
		s.reject(nowS, r, true)
		return
	}
	if len(feats) != e.Model.FeatureDim() {
		s.reject(nowS, r, false)
		return
	}
	s.key = appendCacheKey(s.key[:0], e, feats, r.deadlineS)
	if resp, ok := s.cache.get(s.key); ok {
		s.res.cacheHits++
		s.ctrHits.Inc()
		s.deliver(nowS+s.cfg.CacheHitS, r, resp)
		return
	}
	if fl, ok := s.pending[string(s.key)]; ok {
		s.res.coalesced++
		s.ctrCoalesced.Inc()
		fl.waiters = append(fl.waiters, r)
		return
	}
	s.res.misses++
	key := string(s.key)
	fl := &flight{key: key, entry: e, features: feats, deadlineS: r.deadlineS, waiters: []*request{r}}
	s.pending[key] = fl
	if s.open == nil {
		s.open = &batch{}
		s.events.Push(nowS+s.cfg.BatchWindowS, event{kind: evBatchClose, batch: s.open})
	}
	s.open.flights = append(s.open.flights, fl)
	if len(s.open.flights) >= s.cfg.MaxBatch {
		s.closeBatch(nowS, s.open)
	}
}

// reject answers a refused request on the short path: no prediction is made
// and no zero answer is fabricated, but the client still gets its response
// (an error) after the cache-hit cost.
func (s *shard) reject(nowS float64, r *request, noModel bool) {
	s.res.rejected++
	if noModel {
		s.res.rejectedNoModel++
		s.ctrRejNoModel.Inc()
	} else {
		s.res.rejectedBadShape++
		s.ctrRejShape.Inc()
	}
	doneS := nowS + s.cfg.CacheHitS
	if doneS > s.res.lastDoneS {
		s.res.lastDoneS = doneS
	}
	if r.client >= 0 {
		s.issueFromClient(doneS, r.client)
	}
}

// deliver records one answered request and, for a closed-loop client,
// triggers its next think cycle.
func (s *shard) deliver(doneS float64, r *request, resp Response) {
	lat := doneS - r.arriveS
	s.res.latencies = append(s.res.latencies, lat)
	s.histLatency.Observe(lat)
	if doneS > s.res.lastDoneS {
		s.res.lastDoneS = doneS
	}
	s.res.completed++
	s.ctrCompleted.Inc()
	s.res.perVersion[versionKey{resp.App, resp.Device, resp.Version}]++
	if resp.Escalated {
		s.res.escalations++
	}
	if resp.OnPareto {
		s.res.onPareto++
	}
	s.res.predEnergyJ += resp.PredEnergyJ
	s.res.predEnergyMaxJ += resp.PredEnergyMaxJ
	if r.client >= 0 {
		s.issueFromClient(doneS, r.client)
	}
}

// closeBatch seals the batch and schedules its compute completion.
func (s *shard) closeBatch(nowS float64, b *batch) {
	b.closed = true
	if b == s.open {
		s.open = nil
	}
	s.res.batches++
	s.ctrBatches.Inc()
	s.res.batchedFlights += len(b.flights)
	if len(b.flights) > s.res.maxBatchLen {
		s.res.maxBatchLen = len(b.flights)
	}
	computeS := s.cfg.BatchBaseS + s.cfg.BatchPerReqS*float64(len(b.flights))
	s.events.Push(nowS+computeS, event{kind: evBatchDone, batch: b})
}

// handleBatchDone evaluates the batch — one PredictCurvesBatch block per
// pinned model version — and answers every waiter, including any that
// coalesced onto a flight while the batch was computing.
func (s *shard) handleBatchDone(nowS float64, b *batch) error {
	type group struct {
		entry   *Entry
		flights []*flight
	}
	var groups []*group
	byEntry := map[*Entry]*group{}
	for _, fl := range b.flights {
		g, ok := byEntry[fl.entry]
		if !ok {
			g = &group{entry: fl.entry}
			byEntry[fl.entry] = g
			groups = append(groups, g)
		}
		g.flights = append(g.flights, fl)
	}
	for _, g := range groups {
		inputs := make([][]float64, len(g.flights))
		for i, fl := range g.flights {
			inputs[i] = fl.features
		}
		curves, err := g.entry.Model.PredictCurvesBatch(inputs, s.freqs)
		if err != nil {
			return fmt.Errorf("serve: shard %s batch inference: %w", s.sc.Device, err)
		}
		for i, fl := range g.flights {
			resp := g.entry.AdviseFromCurve(curves[i], fl.deadlineS)
			delete(s.pending, fl.key)
			s.cache.put(fl.key, resp)
			s.res.batchedRequests += len(fl.waiters)
			for _, r := range fl.waiters {
				s.deliver(nowS, r, resp)
			}
		}
	}
	return nil
}

// handleReload offers a scheduled payload to the registry; a corrupt one is
// rejected and the serving version is untouched.
func (s *shard) handleReload(nowS float64, rl Reload) {
	dev := obs.L("device", s.sc.Device)
	ver, err := s.reg.Publish(rl.App, rl.Payload)
	if err != nil {
		s.res.reloadsRejected++
		s.ctrReloadRej.Inc()
		s.trace.Add("serve.reload.rejected", nowS, dev, obs.L("app", rl.App))
		return
	}
	s.res.reloads++
	s.ctrReloadOK.Inc()
	s.trace.Add("serve.reload", nowS, dev, obs.L("app", rl.App),
		obs.L("version", strconv.Itoa(ver)))
}
