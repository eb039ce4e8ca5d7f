package main

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"dsenergy/internal/cronos"
	"dsenergy/internal/gpusim"
	"dsenergy/internal/ligen"
	"dsenergy/internal/sched"
	"dsenergy/internal/serve"
	"dsenergy/internal/xrand"
)

const (
	// adviseRound is the number of Advise calls per round: enough for
	// 1,000 samples beyond each traced round's p99.
	adviseRound = 100_000
	// adviseCronosEvery makes every 5th query a Cronos one: there are
	// 545,025 distinct Cronos grids in the trained ranges and 8.2M LiGen
	// shapes, so a run can ask about 2.7M queries before one repeats.
	adviseCronosEvery = 5
	// adviseVerifyEvery is the sampling stride of the bit-identity check.
	adviseVerifyEvery = 16
)

// errExhausted ends a run early once every distinct input has been asked.
var errExhausted = errors.New("every distinct input shape has been asked")

// query is one advisory request.
type query struct {
	app       string
	features  []float64
	deadlineS float64
	key       uint64 // app and shape index, distinct per query
}

// shapeSpace enumerates the integer shapes inside a box in a seeded order
// that visits each exactly once: index j maps to (a·j + b) mod size, a
// coprime to size, decoded in mixed radix over the box.
type shapeSpace struct {
	lo, span [3]int
	size     uint64
	a, b     uint64
	next     uint64
}

func newShapeSpace(lo, hi [3]int, rng *xrand.Rand) *shapeSpace {
	s := &shapeSpace{lo: lo, size: 1}
	for i := range lo {
		s.span[i] = hi[i] - lo[i] + 1
		s.size *= uint64(s.span[i])
	}
	for {
		s.a = 1 + rng.Uint64()%(s.size-1)
		if gcd(s.a, s.size) == 1 {
			break
		}
	}
	s.b = rng.Uint64() % s.size
	return s
}

// take returns the next shape and its index, or false once all are used.
func (s *shapeSpace) take() ([3]int, uint64, bool) {
	if s.next == s.size {
		return [3]int{}, 0, false
	}
	hi, lo := bits.Mul64(s.a, s.next)
	idx := (bits.Rem64(hi, lo, s.size) + s.b) % s.size
	s.next++
	var out [3]int
	rest := idx
	for i := 2; i >= 0; i-- {
		out[i] = s.lo[i] + int(rest%uint64(s.span[i]))
		rest /= uint64(s.span[i])
	}
	return out, idx, true
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// adviseCold is the advise_cold workload: one closed-loop caller issuing
// Registry.Advise against the campaign's V100 models, never the same input
// twice.
type adviseCold struct {
	reg    *serve.Registry
	freqs  []int
	dev    *gpusim.Device // evaluates each shape's analytic f_max time
	fmax   int
	rng    *xrand.Rand
	ligen  *shapeSpace
	cronos *shapeSpace
	issued int

	queries []query
	resps   []serve.Response
	errs    []error
	repeats *repeatCounter[uint64] // traced runs only
}

func setupAdvise(e env) (workload, error) {
	sc, err := campaign(e)
	if err != nil {
		return nil, err
	}
	shard := sc.Shards[0]
	reg := serve.NewRegistry(shard.Device)
	for _, app := range []string{"ligen", "cronos"} {
		err := e.tr.call("serve.publish_s", func() error {
			_, err := reg.Publish(app, shard.Models[app])
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	spec := gpusim.V100Spec()
	dev, err := gpusim.New(spec, 0)
	if err != nil {
		return nil, err
	}
	// Every shape is new, so a cache would only grow.
	dev.DisableAnalyticCache()

	lig, cro := sched.LiGenSizeLadder(), sched.CronosSizeLadder()
	var llo, lhi, clo, chi [3]int
	for i, in := range lig {
		v := [3]int{in.Ligands, in.Atoms, in.Fragments}
		for k := range v {
			if i == 0 || v[k] < llo[k] {
				llo[k] = v[k]
			}
			lhi[k] = max(lhi[k], v[k])
		}
	}
	for i, sz := range cro {
		for k := range sz.Grid {
			if i == 0 || sz.Grid[k] < clo[k] {
				clo[k] = sz.Grid[k]
			}
			chi[k] = max(chi[k], sz.Grid[k])
		}
	}
	rng := xrand.New(e.seed)
	w := &adviseCold{
		reg:    reg,
		freqs:  shard.Freqs,
		dev:    dev,
		fmax:   spec.FMaxMHz(),
		rng:    rng,
		ligen:  newShapeSpace(llo, lhi, rng),
		cronos: newShapeSpace(clo, chi, rng),
	}
	if e.tr != nil {
		w.repeats = &repeatCounter[uint64]{}
	}
	return w, nil
}

// prepare draws the next round's queries: shapes, features and deadlines
// of 2, 4 or 8 times the shape's analytic f_max time.
func (w *adviseCold) prepare(*tracer) error {
	w.queries = w.queries[:0]
	tiers := []float64{2, 4, 8}
	for len(w.queries) < adviseRound {
		var q query
		if w.issued%adviseCronosEvery == adviseCronosEvery-1 {
			g, idx, ok := w.cronos.take()
			if !ok {
				return errExhausted
			}
			// Steps is a function of the grid on the ladder: take the
			// largest rung not above this grid's x extent.
			steps := 0
			for _, sz := range sched.CronosSizeLadder() {
				if sz.Grid[0] <= g[0] {
					steps = sz.Steps
				}
			}
			wl, err := cronos.NewWorkload(g[0], g[1], g[2], steps)
			if err != nil {
				return err
			}
			nominal, _ := wl.AnalyticOn(w.dev, w.fmax)
			q = query{app: "cronos", deadlineS: nominal, key: 1<<63 | idx,
				features: sched.Job{App: sched.AppCronos, Grid: g, Steps: steps}.Features()}
		} else {
			s, idx, ok := w.ligen.take()
			if !ok {
				return errExhausted
			}
			in := ligen.Input{Ligands: s[0], Atoms: s[1], Fragments: s[2]}
			wl, err := ligen.NewWorkload(in)
			if err != nil {
				return err
			}
			nominal, _ := wl.AnalyticOn(w.dev, w.fmax)
			q = query{app: "ligen", deadlineS: nominal, key: idx,
				features: sched.Job{App: sched.AppLiGen, LiGen: in}.Features()}
		}
		q.deadlineS *= tiers[w.rng.Intn(len(tiers))]
		w.queries = append(w.queries, q)
		w.issued++
	}
	return nil
}

func (w *adviseCold) round(tr *tracer) (roundOut, error) {
	// The buffers are reused: main is done with a round's outputs before
	// the next round starts.
	out := roundOut{ops: len(w.queries)}
	if len(w.resps) != len(w.queries) {
		w.resps, w.errs = make([]serve.Response, len(w.queries)), make([]error, len(w.queries))
	}
	resps, errs := w.resps, w.errs
	for i, q := range w.queries {
		if tr == nil {
			resps[i], errs[i] = w.reg.Advise(q.app, q.features, q.deadlineS, w.freqs)
			continue
		}
		resps[i], errs[i] = w.tracedAdvise(tr, i, q)
		w.repeats.add(q.key)
	}
	out.verify = func() (int, []string) { return w.verify(resps, errs) }
	for i, r := range resps {
		if errs[i] == nil {
			out.energyJ += r.PredEnergyJ
			out.answered++
		}
	}
	return out, nil
}

// tracedAdvise makes the three public calls Registry.Advise makes, each in
// a span carrying the query's id, inside a span for the whole query.
func (w *adviseCold) tracedAdvise(tr *tracer, id int, q query) (serve.Response, error) {
	query := tr.open("serve.advise_us", id, 0)
	defer tr.close(query)
	s := tr.open("serve.lookup_us", id, query)
	e, ok := w.reg.Lookup(q.app)
	tr.close(s)
	if !ok {
		return serve.Response{}, fmt.Errorf("%w: %s", serve.ErrNoModel, q.app)
	}
	s = tr.open("core.predict_curves_batch_us", id, query)
	curves, err := e.Model.PredictCurvesBatch([][]float64{q.features}, w.freqs)
	tr.close(s)
	if err != nil {
		return serve.Response{}, err
	}
	s = tr.open("serve.advise_from_curve_us", id, query)
	resp := e.AdviseFromCurve(curves[0], q.deadlineS)
	tr.close(s)
	return resp, nil
}

// verify counts failed calls: an error, a clock off the menu, or — for
// every adviseVerifyEvery-th call — an answer that is not bit-identical to
// Model.PredictCurves followed by Entry.AdviseFromCurve.
func (w *adviseCold) verify(resps []serve.Response, errs []error) (int, []string) {
	failed := 0
	var problems []string
	for i, r := range resps {
		q := w.queries[i]
		switch {
		case errs[i] != nil:
			failed++
			problems = append(problems, fmt.Sprintf("advise %s %v: %v", q.app, q.features, errs[i]))
		case !slices.Contains(w.freqs, r.RecommendedMHz):
			failed++
			problems = append(problems, fmt.Sprintf("advise %s %v: %d MHz is not on the menu", q.app, q.features, r.RecommendedMHz))
		case i%adviseVerifyEvery == 0:
			e, _ := w.reg.Lookup(q.app)
			want := e.AdviseFromCurve(e.Model.PredictCurves(q.features, w.freqs), q.deadlineS)
			if !sameResponse(r, want) {
				failed++
				problems = append(problems, fmt.Sprintf("advise %s %v: answer differs from PredictCurves + AdviseFromCurve", q.app, q.features))
			}
		}
	}
	return failed, problems
}

// sameResponse compares two responses bit for bit.
func sameResponse(a, b serve.Response) bool {
	return a.App == b.App && a.Device == b.Device && a.Version == b.Version &&
		a.RecommendedMHz == b.RecommendedMHz && a.OnPareto == b.OnPareto && a.Escalated == b.Escalated &&
		math.Float64bits(a.PredTimeS) == math.Float64bits(b.PredTimeS) &&
		math.Float64bits(a.PredEnergyJ) == math.Float64bits(b.PredEnergyJ) &&
		math.Float64bits(a.PredEnergyMaxJ) == math.Float64bits(b.PredEnergyMaxJ)
}

func (w *adviseCold) repeatFrac() float64 {
	if w.repeats == nil {
		return 0
	}
	return w.repeats.frac()
}
