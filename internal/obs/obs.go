// Package obs is the repository's deterministic observability layer:
// metrics, tracing and profiling for the simulated measurement stack, built
// on the same discipline as internal/parallel — observing a run must never
// change its bytes.
//
// The layer separates three signals by how reproducible they are:
//
//   - Metrics (Registry): counters and histograms keyed by name and sorted
//     labels. The deterministic export contains only values that are
//     functions of the simulated work itself (kernel launches, DVFS
//     transitions, injected faults, CV folds): integer counts and
//     order-invariant histogram statistics, so the export is byte-identical
//     across runs and worker counts. Scheduling-dependent values (analytic
//     cache hits/misses) are registered as *unstable* and excluded from the
//     deterministic export.
//   - Traces (Trace): spans keyed on *simulated* time — durations come from
//     the simulator's clock, never the host's, and span order follows the
//     fork/absorb discipline of the parallel engine, so a trace is
//     byte-identical for every `-j` value and every schedule.
//   - Profiles (Profile): wall-clock phase timers. These are inherently
//     non-deterministic and are therefore never part of the metric or trace
//     exports; they are dumped separately (the CLIs' -profile flag),
//     together with the unstable metrics.
//
// Everything is nil-safe: a nil *Observer (and every handle derived from
// one) turns the whole layer into no-ops, so instrumented code calls it
// unconditionally and un-observed runs follow the exact same code path.
package obs

import (
	"fmt"
	"io"
)

// Observer bundles the three signals. The zero value is not useful;
// construct with NewObserver. A nil Observer disables all instrumentation.
type Observer struct {
	metrics *Registry
	trace   *Trace
	profile *Profile
}

// NewObserver returns an observer with all three signals enabled.
func NewObserver() *Observer {
	return &Observer{
		metrics: NewRegistry(),
		trace:   NewTrace(),
		profile: NewProfile(),
	}
}

// Metrics returns the metric registry (nil for a nil observer).
func (o *Observer) Metrics() *Registry {
	if o == nil {
		return nil
	}
	return o.metrics
}

// Trace returns the span collector (nil for a nil observer).
func (o *Observer) Trace() *Trace {
	if o == nil {
		return nil
	}
	return o.trace
}

// Profile returns the wall-clock profiler (nil for a nil observer).
func (o *Observer) Profile() *Profile {
	if o == nil {
		return nil
	}
	return o.profile
}

// Fork derives a child observer for one pre-ordered task of a parallel
// region. Metrics and profile are shared (their accumulation is
// order-invariant); the trace is forked so the child's spans stay private
// until the parent absorbs them in task order. Fork of a nil observer
// returns nil.
func (o *Observer) Fork() *Observer {
	if o == nil {
		return nil
	}
	return &Observer{metrics: o.metrics, trace: o.trace.Fork(), profile: o.profile}
}

// ForkN derives n children in task order — the pre-split idiom used before
// handing tasks to a worker pool. For a nil observer the returned slice
// holds n nils, so callers can index it unconditionally.
func (o *Observer) ForkN(n int) []*Observer {
	out := make([]*Observer, n)
	for i := range out {
		out[i] = o.Fork()
	}
	return out
}

// AbsorbAll folds the children's traces back into o in slice order. It is
// the counterpart of ForkN: calling it after every task succeeded makes the
// final trace independent of how the pool scheduled the tasks. Nil
// observers (on either side) are no-ops.
func (o *Observer) AbsorbAll(children []*Observer) {
	if o == nil {
		return
	}
	for _, c := range children {
		if c != nil {
			o.trace.Absorb(c.trace)
		}
	}
}

// WriteMetricsText writes the deterministic metric export as text.
func (o *Observer) WriteMetricsText(w io.Writer) error {
	return o.Metrics().WriteText(w)
}

// WriteMetricsJSON writes the deterministic metric export as JSON.
func (o *Observer) WriteMetricsJSON(w io.Writer) error {
	return o.Metrics().WriteJSON(w)
}

// WriteTraceText writes the simulated-time trace as text.
func (o *Observer) WriteTraceText(w io.Writer) error {
	return o.Trace().WriteText(w)
}

// WriteProfileText dumps the non-deterministic tier: wall-clock phase
// timers followed by the unstable metrics. This output is intentionally
// excluded from the deterministic exports — byte-identity across runs is
// neither promised nor wanted here.
func (o *Observer) WriteProfileText(w io.Writer) error {
	if o == nil {
		_, err := fmt.Fprintln(w, "# profiling disabled (no observer)")
		return err
	}
	if err := o.profile.WriteText(w); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "# unstable metrics (scheduling-dependent, excluded from -metrics)"); err != nil {
		return err
	}
	return o.metrics.writeText(w, unstableOnly)
}
