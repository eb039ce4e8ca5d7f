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

// TestCacheHitArrivalAllocs guards the steady-state arrival path of a
// shard whose every request hits the LRU: pop the arrival, key it, answer
// it from the cache and issue the next request, which is the open loop's
// next arrival or, in the closed loop, the answered client's next request.
// Request slots are recycled and the latency buffer is sized from the
// request budget, so no arrival allocates.
func TestCacheHitArrivalAllocs(t *testing.T) {
	payload := testPayload(t, 1)
	for _, load := range []Load{
		{Mode: "open", Requests: 2000},
		{Mode: "closed", Clients: 1, RequestsPerClient: 2000},
	} {
		t.Run(load.Mode, func(t *testing.T) {
			s, err := newShard(ShardConfig{
				Device: "v100",
				Freqs:  testFreqs,
				Models: map[string][]byte{"ligen": payload},
				Shapes: testShapes(),
				Load:   load,
			}, xrand.New(1), nil)
			if err != nil {
				t.Fatal(err)
			}
			e := s.entries[0]
			version := s.versionSlot(e)
			for _, sh := range s.sc.Shapes {
				for _, tier := range s.load.Tiers {
					key := appendCacheKey(nil, e, sh.Features, tier*sh.NominalS)
					s.cache.put(string(key), Response{App: e.App, Device: e.Device, Version: e.Version}, version)
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
