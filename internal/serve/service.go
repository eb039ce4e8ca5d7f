package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
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
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("serve: no shards configured")
	}
	models, err := decodeModels(cfg.Shards, cfg.Workers)
	if err != nil {
		return nil, err
	}
	rngs := xrand.New(cfg.Seed).SplitN(len(cfg.Shards))
	children := cfg.Obs.ForkN(len(cfg.Shards))
	results, err := parallel.Map(context.Background(), len(cfg.Shards), cfg.Workers,
		func(_ context.Context, i int) (*shardResult, error) {
			return runShard(cfg.Shards[i], models[i], rngs[i], children[i])
		})
	if err != nil {
		return nil, err
	}
	cfg.Obs.AbsorbAll(children)
	return mergeResults(results), nil
}

// decoded is core.LoadModel's result for one payload: the model, or the
// error that rejects the payload.
type decoded struct {
	model *core.Model
	err   error
}

// decodeModels decodes each distinct model payload of the campaign once,
// on the pool, before any shard starts: payloads are equal when
// bytes.Equal says so, and every shard that publishes equal bytes shares
// one read-only *core.Model. Shard i's slice holds the decode of each
// payload it publishes: its initial models in sorted app order, then its
// reloads in order.
func decodeModels(shards []ShardConfig, workers int) ([][]decoded, error) {
	var payloads [][]byte // distinct, in first-use order
	refs := make([][]int, len(shards))
	use := func(i int, p []byte) {
		j := slices.IndexFunc(payloads, func(q []byte) bool { return bytes.Equal(p, q) })
		if j < 0 {
			j = len(payloads)
			payloads = append(payloads, p)
		}
		refs[i] = append(refs[i], j)
	}
	for i, sc := range shards {
		for _, app := range sortedApps(sc.Models) {
			use(i, sc.Models[app])
		}
		for _, rl := range sc.Reloads {
			use(i, rl.Payload)
		}
	}
	decs, err := parallel.Map(context.Background(), len(payloads), workers,
		func(_ context.Context, j int) (decoded, error) {
			m, err := core.LoadModel(bytes.NewReader(payloads[j]))
			return decoded{model: m, err: err}, nil
		})
	if err != nil {
		return nil, err
	}
	out := make([][]decoded, len(shards))
	for i, js := range refs {
		out[i] = make([]decoded, len(js))
		for k, j := range js {
			out[i][k] = decs[j]
		}
	}
	return out, nil
}

// sortedApps returns the apps of a shard's initial models in publish order.
func sortedApps(models map[string][]byte) []string {
	apps := make([]string, 0, len(models))
	for app := range models {
		apps = append(apps, app)
	}
	sort.Strings(apps)
	return apps
}

// checkCount rejects a negative count; zero selects the field's default.
func checkCount(name string, n int) error {
	if n < 0 {
		return fmt.Errorf("%s = %d, want a non-negative count", name, n)
	}
	return nil
}

// checkTime rejects a NaN, infinite or negative time; zero selects the
// field's default.
func checkTime(name string, s float64) error {
	if !(s >= 0) || math.IsInf(s, 1) {
		return fmt.Errorf("%s = %v, want a finite non-negative time", name, s)
	}
	return nil
}

// validate rejects the load values withDefaults cannot repair.
func (l Load) validate() error {
	errs := []error{
		checkCount("Requests", l.Requests),
		checkCount("Clients", l.Clients),
		checkCount("RequestsPerClient", l.RequestsPerClient),
		checkCount("MalformedEvery", l.MalformedEvery),
		checkTime("MeanInterarrivalS", l.MeanInterarrivalS),
		checkTime("MeanThinkS", l.MeanThinkS),
	}
	for i, tier := range l.Tiers {
		errs = append(errs, checkTime(fmt.Sprintf("Tiers[%d]", i), tier))
	}
	return errors.Join(errs...)
}

// Event kinds of the shard's simulated-time loop.
const (
	evArrive = iota
	evBatchClose
	evBatchDone
	evReload
)

// event is one entry of the shard's event queue, which orders events by
// (time, push order). It holds no pointer, so the queue's swaps need no
// write barrier: idx is a request slot (evArrive), a batch slot
// (evBatchClose, evBatchDone) or an index into ShardConfig.Reloads
// (evReload).
type event struct {
	kind int32
	idx  int32
}

// slab is a recycling arena addressed by int32 slot: alloc reuses the most
// recently released slot before growing, so a shard's steady state
// allocates nothing. A slot keeps its old contents until the caller
// overwrites them, which lets slices inside it keep their capacity.
type slab[T any] struct {
	items []T
	free  []int32
}

func (p *slab[T]) alloc() int32 {
	if n := len(p.free); n > 0 {
		i := p.free[n-1]
		p.free = p.free[:n-1]
		return i
	}
	var zero T
	p.items = append(p.items, zero)
	return int32(len(p.items) - 1)
}

func (p *slab[T]) release(i int32) { p.free = append(p.free, i) }

// request is one advisory query in flight through the shard, from its
// arrival until it is answered or refused.
type request struct {
	arriveS float64
	client  int   // closed-loop client index; -1 for open loop
	cell    int32 // index into shard.cells
}

// cell is one request class of a shard: a (shape, deadline tier,
// malformed) triple, at index 2*(shape*len(Tiers)+tier)+malformed. A
// request's key depends only on its cell and the serving entry of the
// cell's shape, so resolveEntries builds and interns each cell's key once
// per publish and a request reads its key id here.
type cell struct {
	entry     *Entry    // the shape's serving entry; nil: no model
	features  []float64 // the shape's features, less the last when malformed
	deadlineS float64   // advisory compute deadline: tier x NominalS
	id        int32     // interned key id; -1 when the cell is refused
}

// flight is one single-flight computation: the first miss for a key creates
// it, later identical misses pile onto waiters, and everyone is answered
// from the one batched prediction.
type flight struct {
	key       int32  // interned key id
	entry     *Entry // model version pinned at flight creation
	version   int32  // entry's slot in shardResult.versions
	features  []float64
	deadlineS float64
	waiters   []int32 // request slots
}

// batch is one coalescing window of flights bound for one PredictCurvesBatch
// call per model version. Its slot is recycled once neither of its events,
// the window timer and the completion, is still queued.
type batch struct {
	flights []int32 // flight slots
	closed  bool
	queued  int
}

// drawBlock is the number of requests whose randomness a stream draws at
// once.
const drawBlock = 64

// stream is one request generator: a shard's open loop or one closed-loop
// client. It draws its requests' randomness drawBlock requests ahead, each
// request's gap, shape Float64 and tier Intn in that order from its own
// rng, so the stream is the one drawing a request at a time would give,
// and it never draws past its request budget. The logarithms of a block
// do not wait on each other, and none waits on the event loop.
type stream struct {
	rng     *xrand.Rand
	meanS   float64 // mean gap between the stream's requests
	undrawn int     // requests of the budget not yet drawn
	next, n int     // the block's next unread request and its length
	gapS    [drawBlock]float64
	cell    [drawBlock]int32 // 2*(shape*tiers+tier): the cell before the malformed cadence
}

func newStream(rng *xrand.Rand, budget int, meanS float64) stream {
	return stream{rng: rng, meanS: meanS, undrawn: budget}
}

// take returns the next request's gap and cell over shapes shapes and
// tiers deadline tiers, drawing the next block when the last is spent, or
// false once the budget is.
func (st *stream) take(shapes, tiers int) (gapS float64, cell int32, ok bool) {
	if st.next == st.n {
		if st.undrawn == 0 {
			return 0, 0, false
		}
		st.fill(shapes, tiers)
	}
	k := st.next
	st.next++
	return st.gapS[k], st.cell[k], true
}

// fill draws the next block: an exponential gap, then a popularity-skewed
// shape (low indices dominate, which is what gives the LRU a working set),
// then a deadline tier, for each request.
func (st *stream) fill(shapes, tiers int) {
	st.next, st.n = 0, min(drawBlock, st.undrawn)
	st.undrawn -= st.n
	for k := 0; k < st.n; k++ {
		st.gapS[k] = -st.meanS * math.Log(1-st.rng.Float64())
		u := st.rng.Float64()
		idx := int(u * u * float64(shapes))
		if idx >= shapes {
			idx = shapes - 1
		}
		st.cell[k] = int32(2 * (idx*tiers + st.rng.Intn(tiers)))
	}
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
	latencies                         []float64 // sized once from the request budget, sorted after the loop
	lastDoneS                         float64
	versions                          []VersionCount // one slot per answering model version
}

// shard is the running state of one device's event loop.
type shard struct {
	sc        ShardConfig
	load      Load
	freqs     []int
	reg       *Registry
	reloads   []decoded        // the decoded payload of each of sc.Reloads
	cells     []cell           // refreshed on publish
	ids       map[string]int32 // appendCacheKey bytes → interned key id
	versionOf map[*Entry]int32
	cache     *lru
	pending   []int32 // key id → flight slot; -1 when no flight
	reqs      slab[request]
	flights   slab[flight]
	batches   slab[batch]
	open      int32 // the open batch's slot; -1 when none
	events    eventq.Queue[event]
	arrivals  stream   // the open loop
	clients   []stream // the closed loop, one per client
	generated int      // requests generated, for the malformed cadence
	res       *shardResult

	// Scratch of handleBatchDone, reused across batches.
	groups       []*Entry
	groupFlights []int32
	inputs       [][]float64

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

func runShard(sc ShardConfig, models []decoded, rng *xrand.Rand, o *obs.Observer) (*shardResult, error) {
	if o != nil {
		defer o.Profile().Phase("serve.shard").Start()()
	}
	s, err := newShard(sc, models, rng, o)
	if err != nil {
		return nil, err
	}
	s.start()
	for s.events.Len() > 0 {
		now, e := s.events.Pop()
		switch e.kind {
		case evArrive:
			s.handleArrive(now, e.idx)
		case evBatchClose:
			if !s.batches.items[e.idx].closed {
				s.closeBatch(now, e.idx)
			}
			s.unqueueBatch(e.idx)
		case evBatchDone:
			if err := s.handleBatchDone(now, e.idx); err != nil {
				return nil, err
			}
			s.unqueueBatch(e.idx)
		case evReload:
			s.handleReload(now, e.idx)
		}
	}
	if live := len(s.flights.items) - len(s.flights.free); live != 0 || s.open >= 0 {
		return nil, fmt.Errorf("serve: shard %s drained with %d stranded flights", sc.Device, live)
	}
	// The merge reads its percentiles from each shard's sorted run.
	slices.Sort(s.res.latencies)
	s.trace.Add("serve.shard", s.res.lastDoneS, obs.L("device", sc.Device),
		obs.L("requests", strconv.Itoa(s.res.submitted)))
	return s.res, nil
}

// newShard validates one shard's configuration, publishes its initial
// models and sizes its buffers. models is the shard's slice from
// decodeModels.
func newShard(sc ShardConfig, models []decoded, rng *xrand.Rand, o *obs.Observer) (*shard, error) {
	if sc.Device == "" {
		return nil, fmt.Errorf("serve: shard with empty device name")
	}
	if len(sc.Freqs) == 0 {
		return nil, fmt.Errorf("serve: shard %s has no candidate frequencies", sc.Device)
	}
	if len(sc.Shapes) == 0 {
		return nil, fmt.Errorf("serve: shard %s has no request shapes", sc.Device)
	}
	errs := []error{sc.Load.validate()}
	for i := range sc.Reloads {
		errs = append(errs, checkTime(fmt.Sprintf("Reloads[%d].AtS", i), sc.Reloads[i].AtS))
	}
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("serve: shard %s: %w", sc.Device, err)
	}
	load := sc.Load.withDefaults()
	var (
		budget   int // the most requests the shard can answer
		arrivals stream
		clients  []stream
	)
	switch load.Mode {
	case "open":
		budget = load.Requests
		arrivals = newStream(rng, load.Requests, load.MeanInterarrivalS)
	case "closed":
		if load.RequestsPerClient > math.MaxInt/load.Clients {
			return nil, fmt.Errorf("serve: shard %s: %d clients x %d requests overflows",
				sc.Device, load.Clients, load.RequestsPerClient)
		}
		budget = load.Clients * load.RequestsPerClient
		// Each client owns a pre-split stream: its think times and request
		// content depend only on its own draws and its response times.
		crngs := rng.Split().SplitN(load.Clients)
		clients = make([]stream, load.Clients)
		for i := range clients {
			clients[i] = newStream(crngs[i], load.RequestsPerClient, load.MeanThinkS)
		}
	default:
		return nil, fmt.Errorf("serve: shard %s has unknown load mode %q", sc.Device, load.Mode)
	}

	freqs := append([]int(nil), sc.Freqs...)
	sort.Ints(freqs)
	reg := NewRegistry(sc.Device)
	apps := sortedApps(sc.Models)
	for k, app := range apps {
		if _, err := reg.install(app, models[k].model, models[k].err); err != nil {
			return nil, fmt.Errorf("serve: shard %s initial publish: %w", sc.Device, err)
		}
	}
	cells := make([]cell, 0, 2*len(load.Tiers)*len(sc.Shapes))
	for _, sh := range sc.Shapes {
		short := sh.Features
		if len(short) > 0 {
			short = short[:len(short)-1]
		}
		for _, tier := range load.Tiers {
			d := tier * sh.NominalS
			cells = append(cells, cell{features: sh.Features, deadlineS: d}, cell{features: short, deadlineS: d})
		}
	}

	m := o.Metrics()
	dev := obs.L("device", sc.Device)
	s := &shard{
		sc:        sc,
		load:      load,
		freqs:     freqs,
		reg:       reg,
		reloads:   models[len(apps):],
		cells:     cells,
		ids:       map[string]int32{},
		versionOf: map[*Entry]int32{},
		cache:     newLRU(CacheCap),
		open:      -1,
		arrivals:  arrivals,
		clients:   clients,
		res:       &shardResult{device: sc.Device, latencies: make([]float64, 0, budget)},

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
	s.resolveEntries()
	return s, nil
}

// start queues the scheduled reloads and the first arrivals.
func (s *shard) start() {
	for i := range s.sc.Reloads {
		s.events.Push(s.sc.Reloads[i].AtS, event{kind: evReload, idx: int32(i)})
	}
	if s.load.Mode == "open" {
		s.scheduleArrival(0)
	}
	for i := range s.clients {
		s.issueFromClient(0, i)
	}
}

// resolveEntries looks up the serving entry of every shape and gives each
// cell that entry and its key id: appendCacheKey's bytes interned to a
// dense id, so equal bytes share one id and a new version's keys get fresh
// ones. A cell without an entry, or whose width disagrees with the
// entry's model, is refused before its key is read and gets -1. Only this
// shard publishes to its registry, so the cells hold until the next
// successful publish.
func (s *shard) resolveEntries() {
	var key []byte
	n := len(s.cells) / len(s.sc.Shapes) // cells per shape
	for sh := range s.sc.Shapes {
		e, _ := s.reg.Lookup(s.sc.Shapes[sh].App)
		for i := sh * n; i < (sh+1)*n; i++ {
			c := &s.cells[i]
			c.entry, c.id = e, -1
			if e == nil || len(c.features) != e.Model.FeatureDim() {
				continue
			}
			key = appendCacheKey(key[:0], e, c.features, c.deadlineS)
			id, ok := s.ids[string(key)]
			if !ok {
				id = int32(len(s.ids))
				s.ids[string(key)] = id
			}
			c.id = id
		}
	}
	s.pending = growIDs(s.pending, len(s.ids))
}

// versionSlot returns e's response-count slot, adding one on e's first
// flight.
func (s *shard) versionSlot(e *Entry) int32 {
	v, ok := s.versionOf[e]
	if !ok {
		v = int32(len(s.res.versions))
		s.res.versions = append(s.res.versions, VersionCount{App: e.App, Device: e.Device, Version: e.Version})
		s.versionOf[e] = v
	}
	return v
}

// scheduleArrival pushes the arrival of the next open-loop request, if any
// remain. At most one open-loop arrival is ever queued, so the arrivals
// stream serves the whole arrival process in order.
func (s *shard) scheduleArrival(nowS float64) {
	if gap, c, ok := s.arrivals.take(len(s.sc.Shapes), len(s.load.Tiers)); ok {
		s.newRequest(nowS+gap, c, -1)
	}
}

// issueFromClient generates client i's next request at or after nowS.
func (s *shard) issueFromClient(nowS float64, i int) {
	if gap, c, ok := s.clients[i].take(len(s.sc.Shapes), len(s.load.Tiers)); ok {
		s.newRequest(nowS+gap, c, i)
	}
}

// newRequest puts a request of the drawn cell into a free slot, marking it
// malformed on the cadence, and queues its arrival.
func (s *shard) newRequest(arriveS float64, cell int32, clientIdx int) {
	s.generated++
	if s.load.MalformedEvery > 0 && s.generated%s.load.MalformedEvery == 0 {
		cell++
	}
	ri := s.reqs.alloc()
	s.reqs.items[ri] = request{arriveS: arriveS, client: clientIdx, cell: cell}
	s.events.Push(arriveS, event{kind: evArrive, idx: ri})
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

func (s *shard) handleArrive(nowS float64, ri int32) {
	// Copy the request out: scheduling the next arrival may grow the slab.
	r := s.reqs.items[ri]
	if r.client < 0 {
		s.scheduleArrival(nowS)
	}
	s.res.submitted++
	s.ctrSubmitted.Inc()

	c := &s.cells[r.cell]
	e := c.entry
	if e == nil {
		s.reject(nowS, ri, true)
		return
	}
	if len(c.features) != e.Model.FeatureDim() {
		s.reject(nowS, ri, false)
		return
	}
	if ent := s.cache.get(c.id); ent != nil {
		s.res.cacheHits++
		s.ctrHits.Inc()
		s.deliver(nowS+CacheHitS, ri, &ent.resp, ent.version)
		return
	}
	if fi := s.pending[c.id]; fi >= 0 {
		s.res.coalesced++
		s.ctrCoalesced.Inc()
		fl := &s.flights.items[fi]
		fl.waiters = append(fl.waiters, ri)
		return
	}
	s.res.misses++
	fi := s.flights.alloc()
	fl := &s.flights.items[fi]
	*fl = flight{key: c.id, entry: e, version: s.versionSlot(e), features: c.features,
		deadlineS: c.deadlineS, waiters: append(fl.waiters[:0], ri)}
	s.pending[c.id] = fi
	if s.open < 0 {
		s.open = s.batches.alloc()
		b := &s.batches.items[s.open]
		*b = batch{flights: b.flights[:0], queued: 1}
		s.events.Push(nowS+BatchWindowS, event{kind: evBatchClose, idx: s.open})
	}
	b := &s.batches.items[s.open]
	b.flights = append(b.flights, fi)
	if len(b.flights) >= MaxBatch {
		s.closeBatch(nowS, s.open)
	}
}

// reject answers a refused request on the short path: no prediction is made
// and no zero answer is fabricated, but the client still gets its response
// (an error) after the cache-hit cost.
func (s *shard) reject(nowS float64, ri int32, noModel bool) {
	s.res.rejected++
	if noModel {
		s.res.rejectedNoModel++
		s.ctrRejNoModel.Inc()
	} else {
		s.res.rejectedBadShape++
		s.ctrRejShape.Inc()
	}
	doneS := nowS + CacheHitS
	if doneS > s.res.lastDoneS {
		s.res.lastDoneS = doneS
	}
	client := s.reqs.items[ri].client
	s.reqs.release(ri)
	if client >= 0 {
		s.issueFromClient(doneS, client)
	}
}

// deliver records one answered request against its model version's slot,
// frees the request's slot and, for a closed-loop client, triggers its next
// think cycle.
func (s *shard) deliver(doneS float64, ri int32, resp *Response, version int32) {
	r := &s.reqs.items[ri]
	lat := doneS - r.arriveS
	client := r.client
	s.reqs.release(ri)
	s.res.latencies = append(s.res.latencies, lat)
	s.histLatency.Observe(lat)
	if doneS > s.res.lastDoneS {
		s.res.lastDoneS = doneS
	}
	s.res.completed++
	s.ctrCompleted.Inc()
	s.res.versions[version].Responses++
	if resp.Escalated {
		s.res.escalations++
	}
	if resp.OnPareto {
		s.res.onPareto++
	}
	s.res.predEnergyJ += resp.PredEnergyJ
	s.res.predEnergyMaxJ += resp.PredEnergyMaxJ
	if client >= 0 {
		s.issueFromClient(doneS, client)
	}
}

// closeBatch seals the batch and schedules its compute completion.
func (s *shard) closeBatch(nowS float64, bi int32) {
	b := &s.batches.items[bi]
	b.closed = true
	b.queued++
	if bi == s.open {
		s.open = -1
	}
	n := len(b.flights)
	s.res.batches++
	s.ctrBatches.Inc()
	s.res.batchedFlights += n
	if n > s.res.maxBatchLen {
		s.res.maxBatchLen = n
	}
	computeS := BatchBaseS + BatchPerReqS*float64(n)
	s.events.Push(nowS+computeS, event{kind: evBatchDone, idx: bi})
}

// unqueueBatch records that one of the batch's events popped and frees its
// slot after the last.
func (s *shard) unqueueBatch(bi int32) {
	b := &s.batches.items[bi]
	if b.queued--; b.queued == 0 {
		s.batches.release(bi)
	}
}

// handleBatchDone evaluates the batch — one PredictCurvesBatch block per
// pinned model version, in order of each version's first flight — and
// answers every waiter, including any that coalesced onto a flight while
// the batch was computing.
func (s *shard) handleBatchDone(nowS float64, bi int32) error {
	flights := s.batches.items[bi].flights
	s.groups = s.groups[:0]
	for _, fi := range flights {
		if e := s.flights.items[fi].entry; !slices.Contains(s.groups, e) {
			s.groups = append(s.groups, e)
		}
	}
	for _, e := range s.groups {
		s.groupFlights, s.inputs = s.groupFlights[:0], s.inputs[:0]
		for _, fi := range flights {
			if fl := &s.flights.items[fi]; fl.entry == e {
				s.groupFlights = append(s.groupFlights, fi)
				s.inputs = append(s.inputs, fl.features)
			}
		}
		curves, err := e.Model.PredictCurvesBatch(s.inputs, s.freqs)
		if err != nil {
			return fmt.Errorf("serve: shard %s batch inference: %w", s.sc.Device, err)
		}
		for i, fi := range s.groupFlights {
			fl := &s.flights.items[fi]
			resp := e.AdviseFromCurve(curves[i], fl.deadlineS)
			s.pending[fl.key] = -1
			s.cache.put(fl.key, resp, fl.version)
			s.res.batchedRequests += len(fl.waiters)
			for _, ri := range fl.waiters {
				s.deliver(nowS, ri, &resp, fl.version)
			}
			s.flights.release(fi)
		}
	}
	return nil
}

// handleReload offers scheduled reload i's decoded payload to the
// registry; a corrupt one is rejected and the serving version is untouched.
func (s *shard) handleReload(nowS float64, i int32) {
	rl := &s.sc.Reloads[i]
	dev := obs.L("device", s.sc.Device)
	ver, err := s.reg.install(rl.App, s.reloads[i].model, s.reloads[i].err)
	if err != nil {
		s.res.reloadsRejected++
		s.ctrReloadRej.Inc()
		s.trace.Add("serve.reload.rejected", nowS, dev, obs.L("app", rl.App))
		return
	}
	s.resolveEntries()
	s.res.reloads++
	s.ctrReloadOK.Inc()
	s.trace.Add("serve.reload", nowS, dev, obs.L("app", rl.App),
		obs.L("version", strconv.Itoa(ver)))
}
