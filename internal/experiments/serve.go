package experiments

import (
	"bytes"
	"fmt"
	"io"
	"math"

	"dsenergy/internal/core"
	"dsenergy/internal/cronos"
	"dsenergy/internal/gpusim"
	"dsenergy/internal/ligen"
	"dsenergy/internal/sched"
	"dsenergy/internal/serve"
	"dsenergy/internal/synergy"
)

// serveMaxCandidates bounds the advisory clock menu: an online service does
// not sweep the full DVFS band per query, it ranks a subsample.
const serveMaxCandidates = 16

// serveRequests is the per-shard request budget (default 500k; four shards
// give the campaign its two-million-request load).
func (c Config) serveRequests() int {
	if c.ServeRequests > 0 {
		return c.ServeRequests
	}
	return 500_000
}

// serveFreqs subsamples a device sweep down to the advisory candidate menu,
// walking from f_max so the fastest clock always stays on it.
func (c Config) serveFreqs(spec gpusim.Spec) []int {
	full := c.sweepFreqs(spec)
	if len(full) <= serveMaxCandidates {
		return full
	}
	stride := (len(full) + serveMaxCandidates - 1) / serveMaxCandidates
	var picked []int
	for i := len(full) - 1; i >= 0; i -= stride {
		picked = append(picked, full[i])
	}
	// Reverse into ascending order.
	for i, j := 0, len(picked)-1; i < j; i, j = i+1, j-1 {
		picked[i], picked[j] = picked[j], picked[i]
	}
	return picked
}

// serveShapes is the request universe of one device: every ladder size of
// both applications, with nominal times from the noiseless analytic model at
// f_max (the same reference GenerateStream sizes deadlines from).
func serveShapes(spec gpusim.Spec) ([]serve.Shape, error) {
	dev, err := gpusim.New(spec, 0)
	if err != nil {
		return nil, err
	}
	fmax := spec.FMaxMHz()
	var shapes []serve.Shape
	for _, in := range sched.LiGenSizeLadder() {
		j := sched.Job{App: sched.AppLiGen, LiGen: in}
		w, err := ligen.NewWorkload(in)
		if err != nil {
			return nil, err
		}
		t, _ := w.AnalyticOn(dev, fmax)
		shapes = append(shapes, serve.Shape{App: "ligen", Features: j.Features(), NominalS: t})
	}
	for _, sz := range sched.CronosSizeLadder() {
		j := sched.Job{App: sched.AppCronos, Grid: sz.Grid, Steps: sz.Steps}
		w, err := cronos.NewWorkload(sz.Grid[0], sz.Grid[1], sz.Grid[2], sz.Steps)
		if err != nil {
			return nil, err
		}
		t, _ := w.AnalyticOn(dev, fmax)
		shapes = append(shapes, serve.Shape{App: "cronos", Features: j.Features(), NominalS: t})
	}
	return shapes, nil
}

// serveModel measures and trains one (app, device) predictor pair on the
// serving candidate clocks and returns its persisted form — the bytes a
// deployment would ship to the advisor, exercising the full save/load path.
func (c Config) serveModel(q *synergy.Queue, app string, freqs []int, seed uint64) ([]byte, error) {
	var (
		schema core.Schema
		sapp   sched.App
	)
	switch app {
	case "ligen":
		schema, sapp = core.LiGenSchema(), sched.AppLiGen
	case "cronos":
		schema, sapp = core.CronosSchema(), sched.AppCronos
	default:
		return nil, fmt.Errorf("experiments: unknown serving app %q", app)
	}
	wls, err := ladderWorkloads(sapp)
	if err != nil {
		return nil, err
	}
	ds, err := core.BuildDataset(q, schema, wls, core.BuildConfig{
		Freqs: freqs, Reps: c.Reps, Workers: c.Jobs,
	})
	if err != nil {
		return nil, err
	}
	m, err := core.Train(ds, c.ForestSpec(), seed)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ServeCampaign builds the serving campaign: four advisor shards over two
// silicons (V100, MI100), each serving LiGen and Cronos models trained on
// that silicon. One V100 shard hot-reloads a retrained LiGen v2 mid-load;
// one MI100 shard receives a corrupt (truncated) upload that must be
// rejected while serving continues. The load mixes open- and closed-loop
// generators, plus malformed requests and an unmodeled app on one shard to
// exercise the admission rejections.
func (c Config) ServeCampaign() (serve.Config, error) {
	p, err := c.Platform()
	if err != nil {
		return serve.Config{}, err
	}
	qs := p.Queues()
	v100, mi100 := qs[0], qs[1]

	vFreqs := c.serveFreqs(v100.Spec())
	mFreqs := c.serveFreqs(mi100.Spec())

	vLigen, err := c.serveModel(v100, "ligen", vFreqs, c.Seed+61)
	if err != nil {
		return serve.Config{}, err
	}
	vCronos, err := c.serveModel(v100, "cronos", vFreqs, c.Seed+62)
	if err != nil {
		return serve.Config{}, err
	}
	// The v2 reload: the same measurements retrained under a different seed,
	// a genuinely distinct forest for the same (app, device).
	vLigen2, err := c.serveModel(v100, "ligen", vFreqs, c.Seed+63)
	if err != nil {
		return serve.Config{}, err
	}
	mLigen, err := c.serveModel(mi100, "ligen", mFreqs, c.Seed+64)
	if err != nil {
		return serve.Config{}, err
	}
	mCronos, err := c.serveModel(mi100, "cronos", mFreqs, c.Seed+65)
	if err != nil {
		return serve.Config{}, err
	}

	vShapes, err := serveShapes(v100.Spec())
	if err != nil {
		return serve.Config{}, err
	}
	mShapes, err := serveShapes(mi100.Spec())
	if err != nil {
		return serve.Config{}, err
	}
	// The unmodeled app: requests the no-model rejection path must absorb.
	mShapesGhost := append(append([]serve.Shape(nil), mShapes...),
		serve.Shape{App: "dock6", Features: []float64{64, 8, 8}, NominalS: 0.05})

	n := c.serveRequests()
	perClient := n / 16
	if perClient < 1 {
		perClient = 1
	}
	// Reload instants scale with the open-loop makespan (mean interarrival
	// 0.5 ms × n requests) so the swaps land mid-load at every budget.
	quarterS := 0.0005 * float64(n) * 0.25
	return serve.Config{
		Shards: []serve.ShardConfig{
			{
				Device: "v100-a",
				Freqs:  vFreqs,
				Models: map[string][]byte{"ligen": vLigen, "cronos": vCronos},
				Reloads: []serve.Reload{
					{AtS: quarterS, App: "ligen", Payload: vLigen2},
				},
				Shapes: vShapes,
				Load:   serve.Load{Mode: "open", Requests: n, MeanInterarrivalS: 0.0005},
			},
			{
				Device: "v100-b",
				Freqs:  vFreqs,
				Models: map[string][]byte{"ligen": vLigen, "cronos": vCronos},
				Shapes: vShapes,
				Load: serve.Load{Mode: "closed", Clients: 16,
					RequestsPerClient: perClient, MeanThinkS: 0.002},
			},
			{
				Device: "mi100-a",
				Freqs:  mFreqs,
				Models: map[string][]byte{"ligen": mLigen, "cronos": mCronos},
				Reloads: []serve.Reload{
					// A torn upload: must be rejected, v1 keeps serving.
					{AtS: quarterS / 2, App: "cronos", Payload: mCronos[:len(mCronos)/3]},
				},
				Shapes: mShapesGhost,
				Load: serve.Load{Mode: "open", Requests: n,
					MeanInterarrivalS: 0.0005, MalformedEvery: 1000},
			},
			{
				Device: "mi100-b",
				Freqs:  mFreqs,
				Models: map[string][]byte{"ligen": mLigen, "cronos": mCronos},
				Shapes: mShapes,
				Load: serve.Load{Mode: "closed", Clients: 16,
					RequestsPerClient: perClient, MeanThinkS: 0.002},
			},
		},
		Seed:    c.Seed + 66,
		Workers: c.Jobs,
		Obs:     c.Obs,
	}, nil
}

// sameResponse compares two advisory responses bit-for-bit: integer and
// boolean fields directly, float fields through their IEEE-754 words.
func sameResponse(a, b serve.Response) bool {
	return a.App == b.App && a.Device == b.Device && a.Version == b.Version &&
		a.RecommendedMHz == b.RecommendedMHz &&
		a.OnPareto == b.OnPareto && a.Escalated == b.Escalated &&
		math.Float64bits(a.PredTimeS) == math.Float64bits(b.PredTimeS) &&
		math.Float64bits(a.PredEnergyJ) == math.Float64bits(b.PredEnergyJ) &&
		math.Float64bits(a.PredEnergyMaxJ) == math.Float64bits(b.PredEnergyMaxJ)
}

// serveProbeBatchIdentity replays every shape of one shard through both
// inference paths — a lone Advise per request versus one coalesced
// PredictCurvesBatch block — and reports how many disagree in any bit.
func serveProbeBatchIdentity(sc serve.ShardConfig) (probes, mismatches int, err error) {
	reg := serve.NewRegistry(sc.Device)
	for _, app := range []string{"ligen", "cronos"} {
		if payload, ok := sc.Models[app]; ok {
			if _, err := reg.Publish(app, payload); err != nil {
				return 0, 0, err
			}
		}
	}
	byApp := map[string][]serve.Shape{}
	for _, sh := range sc.Shapes {
		byApp[sh.App] = append(byApp[sh.App], sh)
	}
	for _, app := range []string{"ligen", "cronos"} {
		shapes := byApp[app]
		if len(shapes) == 0 {
			continue
		}
		e, ok := reg.Lookup(app)
		if !ok {
			continue
		}
		inputs := make([][]float64, len(shapes))
		for i, sh := range shapes {
			inputs[i] = sh.Features
		}
		curves, err := e.Model.PredictCurvesBatch(inputs, sc.Freqs)
		if err != nil {
			return probes, mismatches, err
		}
		for i, sh := range shapes {
			for _, tier := range []float64{2, 4, 8} {
				deadline := tier * sh.NominalS
				single, err := e.Advise(sh.Features, deadline, sc.Freqs)
				if err != nil {
					return probes, mismatches, err
				}
				batched := e.AdviseFromCurve(curves[i], deadline)
				probes++
				if !sameResponse(single, batched) {
					mismatches++
				}
			}
		}
	}
	return probes, mismatches, nil
}

// RenderServe runs and prints the serving campaign, closing with CHECK lines
// asserting the acceptance claims: zero lost requests under hot-reload,
// batched inference bit-identical to per-request advice, every response
// attributed to exactly one published version (with both versions of the
// reloaded model answering), the corrupt upload rejected without dropping
// the shard, and the admission tier actually absorbing load. It returns the
// number of failed checks.
func (c Config) RenderServe(w io.Writer) (int, error) {
	cfg, err := c.ServeCampaign()
	if err != nil {
		return 0, err
	}
	rep, err := serve.Run(cfg)
	if err != nil {
		return 0, err
	}
	fmt.Fprintln(w, "== frequency-advisor service: 4 shards, LiGen+Cronos on V100/MI100 ==")
	if err := rep.WriteText(w); err != nil {
		return 0, err
	}
	failed := 0
	check := func(ok bool, format string, args ...any) {
		verdict := "CHECK ok:   "
		if !ok {
			verdict = "CHECK FAIL: "
			failed++
		}
		fmt.Fprintf(w, verdict+format+"\n", args...)
	}

	n := c.serveRequests()
	perClient := n / 16
	if perClient < 1 {
		perClient = 1
	}
	wantSubmitted := 2*n + 2*16*perClient
	check(rep.Submitted == wantSubmitted,
		"load: %d requests submitted (budget %d/shard, expected %d)",
		rep.Submitted, n, wantSubmitted)
	check(rep.Completed+rep.Rejected == rep.Submitted,
		"zero loss: completed %d + rejected %d == submitted %d",
		rep.Completed, rep.Rejected, rep.Submitted)

	probes, mismatches := 0, 0
	for _, sc := range cfg.Shards {
		p, m, err := serveProbeBatchIdentity(sc)
		if err != nil {
			return failed, err
		}
		probes += p
		mismatches += m
	}
	check(probes > 0 && mismatches == 0,
		"batching: coalesced inference bit-identical to per-request advice (%d probes, %d mismatches)",
		probes, mismatches)

	attributed := 0
	versions := map[string]map[int]bool{}
	for _, v := range rep.PerVersion {
		attributed += v.Responses
		key := v.Device + "/" + v.App
		if versions[key] == nil {
			versions[key] = map[int]bool{}
		}
		versions[key][v.Version] = true
	}
	check(attributed == rep.Completed,
		"attribution: every response maps to exactly one model version (%d == %d)",
		attributed, rep.Completed)
	check(rep.Reloads == 1 && len(versions["v100-a/ligen"]) == 2,
		"hot-reload: v100-a/ligen swapped mid-load, both versions answered (published=%d, versions=%d)",
		rep.Reloads, len(versions["v100-a/ligen"]))
	check(rep.ReloadsRejected == 1 && len(versions["mi100-a/cronos"]) == 1,
		"hot-reload: corrupt mi100-a/cronos upload rejected, v1 kept serving (rejected=%d, versions=%d)",
		rep.ReloadsRejected, len(versions["mi100-a/cronos"]))
	check(rep.RejectedBadShape > 0 && rep.RejectedNoModel > 0,
		"admission: malformed (%d) and unmodeled (%d) requests rejected, not dropped",
		rep.RejectedBadShape, rep.RejectedNoModel)
	check(rep.CacheHitRate() > 0.90,
		"cache: %.2f%% of answers served from the LRU", 100*rep.CacheHitRate())
	check(rep.Coalesced > 0 && rep.MeanBatchFlights > 1,
		"coalescing: %d duplicate in-flight queries merged, %.2f flights per batch",
		rep.Coalesced, rep.MeanBatchFlights)
	check(rep.PredEnergySavedFrac() > 0,
		"advice: recommendations predict %.2f%% energy saving vs always-f_max",
		100*rep.PredEnergySavedFrac())
	check(rep.OnPareto*2 > rep.Completed,
		"advice: %d of %d recommendations lie on the predicted Pareto front",
		rep.OnPareto, rep.Completed)
	check(rep.P50LatencyS <= rep.P99LatencyS && rep.P99LatencyS <= rep.MaxLatencyS &&
		rep.ThroughputRPS > 0,
		"latency: p50 %.6fs <= p99 %.6fs <= max %.6fs at %.0f req/s",
		rep.P50LatencyS, rep.P99LatencyS, rep.MaxLatencyS, rep.ThroughputRPS)
	return failed, nil
}
