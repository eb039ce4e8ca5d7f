package main

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"dsenergy/internal/obs"
)

// perLayer lists the per-layer metrics a traced run prints, in order. A
// layer a workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"experiments.charfigs_s", "s"},
	{"experiments.fig13_s", "s"},
	{"experiments.fig14_s", "s"},
	{"experiments.regressors_s", "s"},
	{"experiments.ablations_s", "s"},
	{"experiments.shapechecks_s", "s"},
	{"experiments.other_s", "s"},
	{"ml.forest.tree_count", "count"},
	{"ml.forest.tree_s", "s"},
	{"ml.cv.fold_count", "count"},
	{"ml.grid.point_count", "count"},
	{"gpusim.kernel_launches", "count"},
	{"gpusim.cache_hit_ratio", "ratio"},
	{"serve.run_s", "s"},
	{"serve.shard_s", "s"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.misses", "count"},
	{"serve.coalesced", "count"},
	{"serve.batches", "count"},
	{"serve.mean_batch_flights", "count"},
	{"serve.advise_us_p50", "us"},
	{"serve.advise_us_p99", "us"},
	{"serve.lookup_us_p50", "us"},
	{"serve.lookup_us_p99", "us"},
	{"core.predict_curves_batch_us_p50", "us"},
	{"core.predict_curves_batch_us_p99", "us"},
	{"serve.advise_from_curve_us_p50", "us"},
	{"serve.advise_from_curve_us_p99", "us"},
	{"sched.run_s", "s"},
	{"sched.admitted", "count"},
	{"sched.escalations", "count"},
	{"sched.deferrals", "count"},
	{"sched.migrations", "count"},
	{"experiments.serve_campaign_s", "s"},
	{"serve.publish_s", "s"},
	{"core.build_dataset_s", "s"},
	{"core.train_s", "s"},
	{"sched.generate_stream_s", "s"},
	{"bench.self_s", "s"},
	{"input.repeat_frac", "ratio"},
	{"failed_frac", "ratio"},
	{"trace_overhead_frac", "ratio"},
}

// Phases of a traced run: per-layer values of set-ups and of rounds are
// kept apart, and a metric reads the median set-up plus the median round.
const (
	phaseSetup = iota
	phaseRound
)

// tracer records spans around the calls the benchmark makes into each
// layer, and reads the counters and phase timers internal/obs exports.
// Each set-up and each traced round gets a fresh observer and a root span;
// nothing is instrumented inside the program.
type tracer struct {
	clk   *clock
	obs   *obs.Observer
	phase int
	spans []span
	acc   map[string]float64 // this phase's values, summed

	vals    [2]map[string][]float64 // per phase: one value per set-up or round
	latency map[string][]float64    // per-query span durations, in µs
}

func newTracer(clk *clock) *tracer {
	return &tracer{
		clk:     clk,
		vals:    [2]map[string][]float64{{}, {}},
		latency: map[string][]float64{},
	}
}

// begin opens a set-up or a traced round. Safe on a nil tracer.
func (tr *tracer) begin(phase int) {
	if tr == nil {
		return
	}
	tr.phase = phase
	tr.obs = obs.NewObserver()
	tr.spans = tr.spans[:0]
	tr.acc = map[string]float64{}
	tr.open("bench", 0, -1)
}

// open starts a span and returns its index. Safe on a nil tracer.
func (tr *tracer) open(name string, id, parent int) int {
	if tr == nil {
		return -1
	}
	now := tr.clk.now()
	tr.spans = append(tr.spans, span{name: name, id: id, parent: parent, start: now, end: now})
	return len(tr.spans) - 1
}

// close ends span i. Safe on a nil tracer.
func (tr *tracer) close(i int) {
	if tr == nil {
		return
	}
	tr.spans[i].end = tr.clk.now()
}

// call runs fn inside a span that is a child of the phase's root.
func (tr *tracer) call(name string, fn func() error) error {
	i := tr.open(name, 0, 0)
	err := fn()
	tr.close(i)
	return err
}

// set adds a per-layer value to the open phase. Safe on a nil tracer.
func (tr *tracer) set(name string, v float64) {
	if tr == nil {
		return
	}
	tr.acc[name] += v
}

// end closes the open phase: span durations and the observer's counters
// become the phase's values. Safe on a nil tracer.
func (tr *tracer) end() {
	if tr == nil {
		return
	}
	tr.close(0)
	tr.acc["bench.self_s"] += selfTime(tr.spans, 0).Seconds()
	for _, s := range tr.spans[1:] {
		d := s.end - s.start
		if strings.HasSuffix(s.name, "_us") {
			tr.latency[s.name] = append(tr.latency[s.name], float64(d.Nanoseconds())/1e3)
			continue
		}
		tr.acc[s.name] += d.Seconds()
	}
	tr.readObserver()
	for _, m := range perLayer {
		tr.keep(m.name)
	}
	tr.keep("gpusim.cache_hits")
	tr.keep("gpusim.cache_lookups")
	tr.spans = tr.spans[:0]
}

// keep stores the open phase's value of name, if it has one.
func (tr *tracer) keep(name string) {
	if v, ok := tr.acc[name]; ok {
		tr.vals[tr.phase][name] = append(tr.vals[tr.phase][name], v)
	}
}

// readObserver folds the counters and phase timers the layers export into
// the open phase.
func (tr *tracer) readObserver() {
	m, p := tr.obs.Metrics(), tr.obs.Profile()
	tr.acc["ml.forest.tree_count"] += float64(m.Counter("ml_trees_trained_total").Value())
	tr.acc["ml.forest.tree_s"] += p.Phase("ml.forest.tree").Total().Seconds()
	tr.acc["ml.cv.fold_count"] += float64(m.Counter("ml_cv_folds_total").Value())
	tr.acc["ml.grid.point_count"] += float64(m.Counter("ml_grid_points_total").Value())
	tr.acc["serve.shard_s"] += p.Phase("serve.shard").Total().Seconds()

	var stable, profile bytes.Buffer
	// Writes to a bytes.Buffer cannot fail.
	_ = tr.obs.WriteMetricsText(&stable)
	_ = tr.obs.WriteProfileText(&profile)
	tr.acc["gpusim.kernel_launches"] += sumMetric(stable.Bytes(), "gpusim_kernel_launches_total")
	hits := sumMetric(profile.Bytes(), "gpusim_analytic_cache_hits_total")
	tr.acc["gpusim.cache_hits"] += hits
	tr.acc["gpusim.cache_lookups"] += hits + sumMetric(profile.Bytes(), "gpusim_analytic_cache_misses_total")
}

// sumMetric adds up every label set of one metric in an obs text export
// ("name{labels} value" lines).
func sumMetric(export []byte, name string) float64 {
	total := 0.0
	sc := bufio.NewScanner(bytes.NewReader(export))
	for sc.Scan() {
		// Label values may hold spaces ("V100 #0"); the value follows the
		// last one.
		line := sc.Text()
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			continue
		}
		key, val := line[:cut], line[cut+1:]
		if base, _, _ := strings.Cut(key, "{"); base != name {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			total += v
		}
	}
	return total
}

// value is a per-layer metric: the median over set-ups plus the median
// over traced rounds.
func (tr *tracer) value(name string) float64 {
	return median(tr.vals[phaseSetup][name]) + median(tr.vals[phaseRound][name])
}

// report fills res with every per-layer metric of a traced run.
func (tr *tracer) report(res *result, wl workload, rounds []roundRecord) error {
	var plain, traced []float64
	for _, r := range rounds {
		tput := float64(r.out.ops) / r.busy().Seconds()
		if r.traced {
			traced = append(traced, tput)
		} else {
			plain = append(plain, tput)
		}
	}
	for _, m := range perLayer {
		var v float64
		switch {
		case m.name == "gpusim.cache_hit_ratio":
			if l := tr.value("gpusim.cache_lookups"); l > 0 {
				v = tr.value("gpusim.cache_hits") / l
			}
		case strings.HasSuffix(m.name, "_p50") || strings.HasSuffix(m.name, "_p99"):
			p := 50
			if strings.HasSuffix(m.name, "_p99") {
				p = 99
			}
			if s := tr.latency[m.name[:len(m.name)-4]]; len(s) > 0 {
				var err error
				if v, err = percentile(s, p); err != nil {
					return fmt.Errorf("%s: %w", m.name, err)
				}
			}
		case m.name == "input.repeat_frac":
			v = wl.repeatFrac()
		case m.name == "failed_frac":
			v = failedFrac(res.Failed, res.Attempted)
		case m.name == "trace_overhead_frac":
			v = 1 - median(traced)/median(plain)
		default:
			v = tr.value(m.name)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		fmt.Printf("%-34s %14.6g %s\n", m.name, v, m.unit)
	}
	return nil
}

// observer returns the open phase's observer; nil on a nil tracer, which
// leaves the layers uninstrumented.
func (tr *tracer) observer() *obs.Observer {
	if tr == nil {
		return nil
	}
	return tr.obs
}
