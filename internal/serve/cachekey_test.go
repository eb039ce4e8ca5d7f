package serve

import (
	"bytes"
	"math"
	"strconv"
	"testing"

	"dsenergy/internal/core"
	"dsenergy/internal/xrand"
)

// cacheKey is the string key the service used before appendCacheKey, kept
// verbatim as the reference: two requests must share a binary key exactly
// when they share this string.
//
// cacheKey canonicalizes a request against the model version that will
// answer it. Embedding the version makes hot-reload invalidation free.
func cacheKey(e *Entry, features []float64, deadlineS float64) string {
	return e.App + "|v" + strconv.Itoa(e.Version) + "|" + core.FeatureKey(features) +
		"|d" + strconv.FormatFloat(deadlineS, 'g', -1, 64)
}

// fuzzReader hands out the fuzz bytes in order, and zeros once they run
// out.
type fuzzReader []byte

func (r *fuzzReader) byte() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

// float reads eight little-endian bytes as float64 bits, so every NaN
// payload, signed zero, infinity and subnormal is reachable.
func (r *fuzzReader) float() float64 {
	var u uint64
	for i := 0; i < 8; i++ {
		u |= uint64(r.byte()) << (8 * i)
	}
	return math.Float64frombits(u)
}

// keyRequest is the part of a request the key covers.
type keyRequest struct {
	entry     *Entry
	features  []float64
	deadlineS float64
}

// decodeRequest builds one request from the fuzz bytes. The layout is a
// copy mask and a feature copy mask (both ignored when prev is nil); then,
// for each field whose copy bit is clear, its encoding: the app name (a
// length byte mod 8, then the bytes, with '|' read as '/'), the version (one
// signed byte), the width (one byte, 1 + b mod 4), each feature not copied
// (eight bytes) and the deadline (eight bytes). Copy bits 0-3 take the app,
// version, width and deadline from prev, and feature copy bit i takes
// feature i, so equal and nearly equal pairs are one bit flip apart.
func decodeRequest(r *fuzzReader, prev *keyRequest) keyRequest {
	copyMask, featMask := r.byte(), r.byte()
	if prev == nil {
		copyMask, featMask = 0, 0
	}
	q := keyRequest{entry: &Entry{}}
	if copyMask&1 != 0 {
		q.entry.App = prev.entry.App
	} else {
		name := make([]byte, r.byte()%8)
		for i := range name {
			if name[i] = r.byte(); name[i] == '|' {
				name[i] = '/'
			}
		}
		q.entry.App = string(name)
	}
	if copyMask&2 != 0 {
		q.entry.Version = prev.entry.Version
	} else {
		q.entry.Version = int(int8(r.byte()))
	}
	var width int
	if copyMask&4 != 0 {
		width = len(prev.features)
	} else {
		width = 1 + int(r.byte()%4)
	}
	q.features = make([]float64, width)
	for i := range q.features {
		if featMask&(1<<i) != 0 && i < len(prev.features) {
			q.features[i] = prev.features[i]
		} else {
			q.features[i] = r.float()
		}
	}
	if copyMask&8 != 0 {
		q.deadlineS = prev.deadlineS
	} else {
		q.deadlineS = r.float()
	}
	return q
}

// FuzzCacheKey is the differential test of the binary request key: for
// two requests built from the fuzz bytes, appendCacheKey must give equal
// bytes exactly when the old string cacheKey gives equal strings. The
// checked-in corpus (testdata/fuzz/FuzzCacheKey) covers -0 against 0, two
// NaN payloads, ±Inf, subnormals and widths 2 against 3.
func FuzzCacheKey(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r := fuzzReader(data)
		a := decodeRequest(&r, nil)
		b := decodeRequest(&r, &a)
		// Append b's key after a stale one, as the shard's reused buffer does.
		stale := appendCacheKey(nil, b.entry, []float64{1, 2}, 3)
		ka := appendCacheKey(nil, a.entry, a.features, a.deadlineS)
		kb := appendCacheKey(stale[:0], b.entry, b.features, b.deadlineS)
		sa := cacheKey(a.entry, a.features, a.deadlineS)
		sb := cacheKey(b.entry, b.features, b.deadlineS)
		if bytes.Equal(ka, kb) != (sa == sb) {
			t.Errorf("binary keys equal=%v, string keys equal=%v\n a=%q\n b=%q",
				bytes.Equal(ka, kb), sa == sb, sa, sb)
		}
	})
}

// testShard builds one shard of sc the way Run does, decoding its payloads
// first.
func testShard(t *testing.T, sc ShardConfig) *shard {
	t.Helper()
	models, err := decodeModels([]ShardConfig{sc}, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newShard(sc, models[0], xrand.New(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCacheHitArrivalAllocs guards the steady-state arrival path of a
// shard whose every request hits the LRU: pop the arrival, read its key id
// from its cell, answer it from the cache and issue the next request,
// which is the open loop's next arrival or, in the closed loop, the
// answered client's next request. Request slots are recycled and the
// latency buffer is sized from the request budget, so no arrival
// allocates.
func TestCacheHitArrivalAllocs(t *testing.T) {
	payload := testPayload(t, 1)
	for _, load := range []Load{
		{Mode: "open", Requests: 2000},
		{Mode: "closed", Clients: 1, RequestsPerClient: 2000},
	} {
		t.Run(load.Mode, func(t *testing.T) {
			s := testShard(t, ShardConfig{
				Device: "v100",
				Freqs:  testFreqs,
				Models: map[string][]byte{"ligen": payload},
				Shapes: testShapes(),
				Load:   load,
			})
			for _, c := range s.cells {
				if c.id >= 0 {
					e := c.entry
					s.cache.put(c.id, Response{App: e.App, Device: e.Device, Version: e.Version}, s.versionSlot(e))
				}
			}
			s.start()
			arrive := func() {
				now, ev := s.events.Pop()
				s.handleArrive(now, ev.idx)
			}
			for i := 0; i < 100; i++ {
				arrive()
			}
			allocs := testing.AllocsPerRun(1000, arrive)
			if s.res.cacheHits != s.res.submitted {
				t.Fatalf("%d of %d arrivals hit the cache; the guard needs every one to", s.res.cacheHits, s.res.submitted)
			}
			if s.events.Len() != 1 {
				t.Fatalf("%d events queued after a hit, want the next arrival alone", s.events.Len())
			}
			if allocs > 0 {
				t.Errorf("a cache-hit arrival allocates %v times, want 0", allocs)
			}
		})
	}
}

// TestCellKeyIDs checks the key interning of resolveEntries: two cells
// share a key id exactly when their appendCacheKey bytes are equal, at the
// first publish and after a reload (a key keeps its id across the reload,
// and the reloaded version's keys get fresh ones), and a cell the shard
// refuses has no id. The shapes hold a duplicated shape, a shape whose
// tier-2 deadline equals another's tier-4 one, a -0/+0 feature pair, a
// too-wide shape whose malformed cells carry an accepted shape's
// features, a second modeled app that the reload leaves alone, and an app
// with no model.
func TestCellKeyIDs(t *testing.T) {
	f := testShapeFeatures[0]
	shapes := []Shape{
		{App: "ligen", Features: f, NominalS: 1},
		{App: "ligen", Features: f, NominalS: 1},
		{App: "ligen", Features: f, NominalS: 2},
		{App: "ligen", Features: []float64{0, 8, 63}, NominalS: 1},
		{App: "ligen", Features: []float64{math.Copysign(0, -1), 8, 63}, NominalS: 1},
		{App: "ligen", Features: append(append([]float64(nil), f...), 5), NominalS: 1},
		{App: "cronos", Features: f, NominalS: 1},
		{App: "dock6", Features: f, NominalS: 1},
	}
	s := testShard(t, ShardConfig{
		Device:  "v100",
		Freqs:   testFreqs,
		Models:  map[string][]byte{"ligen": testPayload(t, 1), "cronos": testPayload(t, 3)},
		Reloads: []Reload{{AtS: 1, App: "ligen", Payload: testPayload(t, 2)}},
		Shapes:  shapes,
		Load:    Load{MalformedEvery: 3},
	})
	keyOf := map[int32]string{} // over both publishes
	idOf := map[string]int32{}
	check := func(stage string) (shared int) {
		perID := map[int32]int{}
		for i, c := range s.cells {
			refused := c.entry == nil || len(c.features) != c.entry.Model.FeatureDim()
			if refused != (c.id < 0) {
				t.Fatalf("%s: cell %d refused=%v but has id %d", stage, i, refused, c.id)
			}
			if refused {
				continue
			}
			key := string(appendCacheKey(nil, c.entry, c.features, c.deadlineS))
			if k, ok := keyOf[c.id]; ok && k != key {
				t.Fatalf("%s: cell %d shares id %d with a cell of different key bytes", stage, i, c.id)
			}
			if id, ok := idOf[key]; ok && id != c.id {
				t.Fatalf("%s: cell %d has id %d, an equal key has id %d", stage, i, c.id, id)
			}
			keyOf[c.id], idOf[key] = key, c.id
			if perID[c.id]++; perID[c.id] == 2 {
				shared++
			}
		}
		if len(s.pending) != len(s.ids) || len(s.ids) != len(keyOf) {
			t.Fatalf("%s: %d ids interned, %d pending slots, %d keys seen", stage, len(s.ids), len(s.pending), len(keyOf))
		}
		return shared
	}
	// Cell 2*(shape*3+tier)+malformed, default tiers 2, 4, 8.
	cellID := func(shape, tier, malformed int) int32 { return s.cells[2*(shape*3+tier)+malformed].id }

	if shared := check("v1"); shared == 0 {
		t.Fatal("no two cells share an id; the shapes do not exercise interning")
	}
	for _, c := range []struct {
		name string
		a, b int32
		same bool
	}{
		{"duplicated shape", cellID(0, 1, 0), cellID(1, 1, 0), true},
		{"tier 2 of nominal 2 against tier 4 of nominal 1", cellID(2, 0, 0), cellID(0, 1, 0), true},
		{"-0 against +0", cellID(3, 0, 0), cellID(4, 0, 0), false},
		{"malformed too-wide shape against its accepted prefix", cellID(5, 2, 1), cellID(0, 2, 0), true},
		{"same features on another app", cellID(6, 0, 0), cellID(0, 0, 0), false},
	} {
		if (c.a == c.b) != c.same {
			t.Errorf("v1: %s: ids %d and %d, want equal=%v", c.name, c.a, c.b, c.same)
		}
	}
	if cellID(7, 0, 0) >= 0 || cellID(5, 0, 0) >= 0 || cellID(0, 0, 1) >= 0 {
		t.Error("v1: a refused cell has a key id")
	}

	v1Ligen, v1Cronos, before := cellID(0, 0, 0), cellID(6, 0, 0), len(s.ids)
	s.handleReload(1, 0)
	if s.res.reloads != 1 {
		t.Fatalf("reload not published: %d published, %d rejected", s.res.reloads, s.res.reloadsRejected)
	}
	check("v2")
	if got := cellID(0, 0, 0); got < int32(before) {
		t.Errorf("v2: a reloaded cell kept id %d (v1 id %d); want a fresh one", got, v1Ligen)
	}
	if got := cellID(6, 0, 0); got != v1Cronos {
		t.Errorf("v2: a cell of the unreloaded app moved from id %d to %d", v1Cronos, got)
	}
}
