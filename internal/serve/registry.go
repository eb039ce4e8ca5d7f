package serve

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"

	"dsenergy/internal/core"
)

// Entry is one immutable published model version. Readers obtain an Entry
// from a single atomic snapshot load, so Version and Model are always a
// consistent pair — a response produced through an Entry is attributable to
// exactly that version even while a Publish races with it.
type Entry struct {
	App     string
	Device  string
	Version int
	Model   *core.Model
}

// Registry is the per-device model store with RCU-style hot-reload: the
// current app→Entry map hangs off one atomic pointer. Readers (Lookup,
// Advise) are lock-free and never block a writer; Publish validates the new
// payload, then installs a fresh copy-on-write map, so in-flight readers
// drain on the snapshot they loaded. Writers are serialized by a mutex.
type Registry struct {
	device string
	mu     sync.Mutex // serializes writers; readers never take it
	snap   atomic.Pointer[map[string]*Entry]
}

// NewRegistry returns an empty registry for one device.
func NewRegistry(device string) *Registry {
	r := &Registry{device: device}
	empty := map[string]*Entry{}
	r.snap.Store(&empty)
	return r
}

// Publish validates payload (a core.Model written by Save) and atomically
// installs it as the next version for app, returning the version number. A
// payload that fails to load — including every ml.ErrCorruptModel shape the
// decoder rejects — leaves the registry untouched: the previous version
// keeps serving.
func (r *Registry) Publish(app string, payload []byte) (int, error) {
	m, err := core.LoadModel(bytes.NewReader(payload))
	return r.install(app, m, err)
}

// install is Publish after the decode: m and err are core.LoadModel's
// results for the payload. A decode error or a normalized model is
// rejected and leaves the registry untouched. m is shared read-only, so
// one decoded model may serve several registries.
func (r *Registry) install(app string, m *core.Model, err error) (int, error) {
	if err != nil {
		return 0, fmt.Errorf("serve: rejecting model %s/%s: %w", app, r.device, err)
	}
	if m.Normalized {
		return 0, fmt.Errorf("serve: model %s/%s is normalized; the advisor needs raw time/energy predictions", app, r.device)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old := *r.snap.Load()
	next := make(map[string]*Entry, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	ver := 1
	if e, ok := old[app]; ok {
		ver = e.Version + 1
	}
	next[app] = &Entry{App: app, Device: r.device, Version: ver, Model: m}
	r.snap.Store(&next)
	return ver, nil
}

// Lookup returns the current entry for app. The entry is immutable: callers
// may keep predicting through it across a concurrent Publish (old readers
// drain on their snapshot).
func (r *Registry) Lookup(app string) (*Entry, bool) {
	e, ok := (*r.snap.Load())[app]
	return e, ok
}

// Advise answers one advisory query against the current version for app:
// the recommended clock among freqs for a job of the given features and
// deadline. Mis-shaped requests are rejected with ErrBadRequest — never
// answered through Predict's silent zero fallback.
func (r *Registry) Advise(app string, features []float64, deadlineS float64, freqs []int) (Response, error) {
	e, ok := r.Lookup(app)
	if !ok {
		return Response{}, fmt.Errorf("%w: %s on %s", ErrNoModel, app, r.device)
	}
	return e.Advise(features, deadlineS, freqs)
}

// Advise evaluates one query against this pinned model version. On a menu
// of at most core.SmallMenu clocks it allocates nothing: the curve and the
// Pareto check both live on the stack.
func (e *Entry) Advise(features []float64, deadlineS float64, freqs []int) (Response, error) {
	if len(freqs) == 0 {
		return Response{}, fmt.Errorf("%w: no candidate frequencies", ErrBadRequest)
	}
	if len(features) != e.Model.FeatureDim() {
		return Response{}, fmt.Errorf("%w: got %d features, %s schema wants %d",
			ErrBadRequest, len(features), e.App, e.Model.FeatureDim())
	}
	var buf [core.SmallMenu]core.CurvePoint
	curve, err := e.Model.AppendCurve(buf[:0], features, freqs)
	if err != nil {
		return Response{}, err
	}
	return e.AdviseFromCurve(curve, deadlineS), nil
}
