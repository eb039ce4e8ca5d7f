package obs

import (
	"fmt"
	"io"
	"sync"
)

// Span is one completed unit of simulated work. DurS is simulated seconds
// (the simulator's own clock), never wall time — that is what makes a trace
// reproducible. Attrs are stored sorted by key.
type Span struct {
	Name  string
	Attrs []Label
	DurS  float64
}

// Trace is an ordered list of spans. Order is append order; parallel
// regions keep it deterministic with the same fork/absorb discipline the
// rest of the repo uses for RNG streams: fork one child trace per task in
// task order before the pool starts, record into the child, absorb children
// back in task order afterwards. All methods are safe on a nil trace.
type Trace struct {
	mu    sync.Mutex
	spans []Span
}

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{} }

// Add appends one finished span.
func (t *Trace) Add(name string, durS float64, attrs ...Label) {
	if t == nil {
		return
	}
	s := Span{Name: name, Attrs: sortedLabels(attrs), DurS: durS}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Fork returns a fresh child trace for one task of a parallel region.
func (t *Trace) Fork() *Trace {
	if t == nil {
		return nil
	}
	return NewTrace()
}

// Absorb appends the child's spans to t, preserving their internal order.
// Call in task order after a parallel region completes.
func (t *Trace) Absorb(child *Trace) {
	if t == nil || child == nil {
		return
	}
	child.mu.Lock()
	spans := child.spans
	child.spans = nil
	child.mu.Unlock()
	if len(spans) == 0 {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, spans...)
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans in order.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteText renders the trace, one span per line, assigning each span a
// cumulative simulated start offset (the sum of all earlier durations).
// The simulated timeline is a bookkeeping axis, not a claim that the spans
// ran back to back on one device.
func (t *Trace) WriteText(w io.Writer) error {
	if t == nil {
		_, err := fmt.Fprintln(w, "# tracing disabled (no observer)")
		return err
	}
	var startS float64
	for i, s := range t.Spans() {
		if _, err := fmt.Fprintf(w, "%6d  start=%ss dur=%ss  %s", i, formatFloat(startS), formatFloat(s.DurS), s.Name); err != nil {
			return err
		}
		for _, a := range s.Attrs {
			if _, err := fmt.Fprintf(w, " %s=%s", a.Key, a.Value); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
		startS += s.DurS
	}
	return nil
}
