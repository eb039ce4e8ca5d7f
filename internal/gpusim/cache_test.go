package gpusim

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"dsenergy/internal/kernels"
	"dsenergy/internal/parallel"
)

func TestValidateRejectsDuplicateFreqs(t *testing.T) {
	cases := []struct {
		name  string
		freqs []int
		dup   int
	}{
		{"adjacent at start", []int{135, 135, 500, 1597}, 135},
		{"adjacent in middle", []int{135, 500, 500, 1597}, 500},
		{"adjacent at end", []int{135, 500, 1597, 1597}, 1597},
	}
	for _, c := range cases {
		s := V100Spec()
		s.CoreFreqsMHz = c.freqs
		s.DefaultFreqMHz = 135
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: duplicate table %v must be rejected", c.name, c.freqs)
			continue
		}
		var dup *DuplicateFreqError
		if !errors.As(err, &dup) {
			t.Errorf("%s: error %v is not a *DuplicateFreqError", c.name, err)
			continue
		}
		if dup.MHz != c.dup || dup.Device != s.Name {
			t.Errorf("%s: got (%q, %d MHz), want (%q, %d MHz)", c.name, dup.Device, dup.MHz, s.Name, c.dup)
		}
	}
	if err := V100Spec().Validate(); err != nil {
		t.Fatalf("strictly ascending preset must stay valid: %v", err)
	}
}

// offMenuProbes returns frequencies that are not on the spec's clock menu:
// below the table, between two entries, and above the table.
func offMenuProbes(tb testing.TB, s Spec) []int {
	tb.Helper()
	probes := []int{s.FMinMHz() - 3, s.CoreFreqsMHz[len(s.CoreFreqsMHz)/2] + 1, s.FMaxMHz() + 50}
	for _, f := range probes {
		if s.HasFreq(f) {
			tb.Fatalf("probe %d unexpectedly on the menu", f)
		}
	}
	return probes
}

func TestAnalyzeAtOffMenuMatchesDirectEvaluation(t *testing.T) {
	// Off-menu clocks (NearestFreq interpolation call sites probe these)
	// must take the direct-evaluation fallback and produce exactly what a
	// cacheless device computes.
	cached := mustNew(t, V100Spec(), 1)
	direct := mustNew(t, V100Spec(), 1)
	direct.DisableAnalyticCache()
	for _, p := range []kernels.Profile{computeBound(), memoryBound()} {
		for _, f := range offMenuProbes(t, cached.Spec()) {
			if got, want := cached.AnalyzeAt(p, f), direct.AnalyzeAt(p, f); got != want {
				t.Errorf("%s at off-menu %d MHz: cached %+v != direct %+v", p.Name, f, got, want)
			}
		}
	}
}

func TestDisableAnalyticCacheFallbackMatchesCached(t *testing.T) {
	cached := mustNew(t, V100Spec(), 1)
	direct := mustNew(t, V100Spec(), 1)
	direct.DisableAnalyticCache()
	p := memoryBound()
	for _, f := range cached.Spec().CoreFreqsMHz {
		if got, want := direct.AnalyzeAt(p, f), cached.AnalyzeAt(p, f); got != want {
			t.Fatalf("at %d MHz: direct %+v != cached %+v", f, got, want)
		}
	}
	if h, m := direct.AnalyticCacheStats(); h != 0 || m != 0 {
		t.Fatalf("detached cache must report zero stats, got %d/%d", h, m)
	}
}

func TestAnalyzeCurveMatchesAnalyzeAt(t *testing.T) {
	d := mustNew(t, V100Spec(), 1)
	direct := mustNew(t, V100Spec(), 1)
	direct.DisableAnalyticCache()
	// Full menu plus off-menu probes in one batch, on both the cached and
	// the cacheless implementation.
	freqs := append(append([]int(nil), d.Spec().CoreFreqsMHz...), offMenuProbes(t, d.Spec())...)
	for _, p := range []kernels.Profile{computeBound(), memoryBound()} {
		for name, dev := range map[string]*Device{"cached": d, "direct": direct} {
			curve := dev.AnalyzeCurve(p, freqs)
			if len(curve) != len(freqs) {
				t.Fatalf("%s: curve length %d, want %d", name, len(curve), len(freqs))
			}
			for i, f := range freqs {
				if want := dev.AnalyzeAt(p, f); curve[i] != want {
					t.Errorf("%s: %s curve[%d] (%d MHz) = %+v, want %+v", name, p.Name, i, f, curve[i], want)
				}
			}
		}
	}
	if got := d.AnalyzeCurve(computeBound(), nil); len(got) != 0 {
		t.Fatalf("empty frequency list must yield an empty curve, got %d entries", len(got))
	}
}

func TestForkSharesCompiledCurves(t *testing.T) {
	d := mustNew(t, V100Spec(), 1)
	p := computeBound()
	d.AnalyzeAt(p, 1297) // compile + publish on the parent
	child := d.Fork()
	child.AnalyzeAt(p, d.Spec().FMaxMHz())
	hits, misses := d.AnalyticCacheStats()
	if misses != 1 {
		t.Fatalf("misses = %d, want 1 (one compile shared by parent and fork)", misses)
	}
	if hits != 1 {
		t.Fatalf("hits = %d, want 1 (fork served from the parent's table)", hits)
	}
}

func TestPowerCapThrottleSameWithCacheDisabled(t *testing.T) {
	// The throttle governor reads the profile's dense compiled curve when the
	// cache is attached and evaluates pointwise otherwise; both walks must
	// pick the same clock and hence the same observation stream. The cases
	// cover a walk part way down the menu, a cap below the lowest clock's
	// power (the walk ends at the lowest clock), and both again from an
	// off-menu device clock (a baseline the menu does not list), where the
	// walk starts at the next clock up.
	offMenu := V100Spec()
	offMenu.DefaultFreqMHz = offMenuProbes(t, offMenu)[1]
	cases := []struct {
		name   string
		spec   Spec
		capW   float64
		lowest bool // the cap is below every clock's power
	}{
		{"fmax, partial walk", V100Spec(), 180, false},
		{"fmax, walk to the lowest clock", V100Spec(), 1, true},
		{"off-menu clock, partial walk", offMenu, 90, false},
		{"off-menu clock, walk to the lowest clock", offMenu, 1, true},
	}
	run := func(spec Spec, capW float64, p kernels.Profile, disable bool) Result {
		d := mustNew(t, spec, 7)
		if disable {
			d.DisableAnalyticCache()
		}
		if err := d.SetPowerCapW(capW); err != nil {
			t.Fatal(err)
		}
		if spec.HasFreq(spec.DefaultFreqMHz) {
			if err := d.SetCoreFreqMHz(spec.FMaxMHz()); err != nil {
				t.Fatal(err)
			}
		}
		d.SetNoiseSigma(0)
		r, err := d.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for _, c := range cases {
		requested := c.spec.FMaxMHz()
		if !c.spec.HasFreq(c.spec.DefaultFreqMHz) {
			requested = c.spec.DefaultFreqMHz
		}
		ref := mustNew(t, c.spec, 7)
		for _, p := range []kernels.Profile{computeBound(), memoryBound()} {
			with, without := run(c.spec, c.capW, p, false), run(c.spec, c.capW, p, true)
			if with != without {
				t.Errorf("%s, %s: capped run diverged: cached %+v != direct %+v", c.name, p.Name, with, without)
			}
			req, lowest := ref.Analytic(p, requested), ref.Analytic(p, c.spec.FMinMHz())
			switch {
			case req.AvgPowerW <= c.capW:
				if with != req {
					t.Errorf("%s, %s: throttled although %g W fits the cap", c.name, p.Name, req.AvgPowerW)
				}
			case c.lowest:
				if with != lowest {
					t.Errorf("%s, %s: ran %+v, want the lowest clock's %+v", c.name, p.Name, with, lowest)
				}
			case with == req || with == lowest:
				t.Errorf("%s, %s: ran %+v, want a clock between the lowest and the request", c.name, p.Name, with)
			}
		}
	}
	// RunAt refuses an off-menu clock whether or not the cache is attached,
	// and charges nothing for the refusal.
	for _, disable := range []bool{false, true} {
		d := mustNew(t, V100Spec(), 7)
		if disable {
			d.DisableAnalyticCache()
		}
		if err := d.SetPowerCapW(180); err != nil {
			t.Fatal(err)
		}
		for _, f := range offMenuProbes(t, d.Spec()) {
			if _, err := d.RunAt(computeBound(), f); err == nil {
				t.Errorf("cache disabled %v: RunAt accepted off-menu %d MHz", disable, f)
			}
		}
		if e := d.EnergyCounterJ(); e != 0 {
			t.Errorf("cache disabled %v: refused runs charged %g J", disable, e)
		}
	}
}

// TestConcurrentForksConvergeOnOneEntry has forks on a worker pool resolve
// the same profiles in different orders, half of them under another kernel
// name, so equal and distinct profiles publish at once and the table grows
// several times mid-run. Every fork must end up with the same entry for a
// profile, one entry per distinct profile must be published, and the
// entries must hold what a cacheless device evaluates. ci.sh runs the
// package under -race: lookups read slots that other forks' publishes write.
func TestConcurrentForksConvergeOnOneEntry(t *testing.T) {
	d := mustNew(t, V100Spec(), 1)
	const distinct, forks = 100, 8
	profiles := make([]kernels.Profile, distinct)
	for i := range profiles {
		profiles[i] = computeBound()
		profiles[i].WorkItems += float64(i)
	}
	devs := make([]*Device, forks)
	got := make([][]*profileEntry, forks)
	for w := range devs {
		devs[w] = d.Fork()
		got[w] = make([]*profileEntry, distinct)
	}
	err := parallel.ForEach(context.Background(), forks, forks, func(_ context.Context, w int) error {
		for k := 0; k < distinct; k++ {
			i := (k*7 + w*13) % distinct
			p := profiles[i]
			if w%2 == 1 {
				p.Name = "renamed" // the name is not part of the key
			}
			got[w][i] = devs[w].entryFor(&p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[*profileEntry]bool, distinct)
	for i := range profiles {
		e := got[0][i]
		for w := 1; w < forks; w++ {
			if got[w][i] != e {
				t.Fatalf("profile %d: fork %d holds another entry than fork 0", i, w)
			}
		}
		if seen[e] {
			t.Fatalf("profile %d shares an entry with another profile", i)
		}
		seen[e] = true
	}
	slots, table := 0, d.cache.table.Load()
	for i := range table.slots {
		if table.slots[i].Load() != nil {
			slots++
		}
	}
	if d.cache.n != distinct || slots != distinct {
		t.Fatalf("published %d entries in %d slots, want %d", d.cache.n, slots, distinct)
	}
	direct := mustNew(t, V100Spec(), 1)
	direct.DisableAnalyticCache()
	for _, p := range profiles {
		for _, f := range []int{V100Spec().FMinMHz(), 1297, V100Spec().FMaxMHz()} {
			if got, want := d.AnalyzeAt(p, f), direct.AnalyzeAt(p, f); got != want {
				t.Fatalf("%d MHz: cached %+v != direct %+v", f, got, want)
			}
		}
	}
}

// fuzzBytes hands out the fuzz input a byte at a time, zeros once spent.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// value decodes one profile field: ±0, a subnormal, a huge finite value, a
// fraction in [0,1), a small count, a power-of-two-scaled value over a wide
// range, or a non-finite value (two NaN payloads, ±Inf).
func (b *fuzzBytes) value() float64 {
	switch b.next() % 8 {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.SmallestNonzeroFloat64 * float64(1+int(b.next()))
	case 3:
		return math.MaxFloat64 / float64(1+int(b.next()))
	case 4:
		return float64(b.next()) / 256
	case 5:
		return float64(b.next()) * float64(1+int(b.next()))
	case 6:
		return math.Ldexp(float64(1+int(b.next())), int(b.next())-64)
	default:
		return [...]float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Float64frombits(0x7ff8dead00000000)}[b.next()%4]
	}
}

// fuzzProfile builds a profile from 14 field values: the ten mix counts in
// declaration order, then WorkItems, Launches, WorkingSetBytes, CacheReuse.
func fuzzProfile(name string, v *[14]float64) kernels.Profile {
	return kernels.Profile{
		Name: name,
		Mix: kernels.InstructionMix{
			IntAdd: v[0], IntMul: v[1], IntDiv: v[2], IntBitwise: v[3],
			FloatAdd: v[4], FloatMul: v[5], FloatDiv: v[6], SpecialFn: v[7],
			GlobalAcc: v[8], LocalAcc: v[9],
		},
		WorkItems: v[10], Launches: v[11], WorkingSetBytes: v[12], CacheReuse: v[13],
	}
}

// sameBits reports whether two values of a struct of float64 and bool
// fields agree field by field, floats compared by their bits.
func sameBits(x, y any) bool {
	vx, vy := reflect.ValueOf(x), reflect.ValueOf(y)
	for i := 0; i < vx.NumField(); i++ {
		fx, fy := vx.Field(i), vy.Field(i)
		if fx.Kind() == reflect.Float64 {
			if math.Float64bits(fx.Float()) != math.Float64bits(fy.Float()) {
				return false
			}
		} else if fx.Bool() != fy.Bool() {
			return false
		}
	}
	return true
}

// FuzzAnalyticCache is a differential fuzz of the analytic cache's key. It
// decodes a profile a and a profile b that either differs from a in exactly
// one field or copies each field of a per a copy bit, then runs a, b and a
// again through one cached device and one cacheless device built alike.
// Every AnalyzeAt, AnalyzeCurve, Run and RunAt result, and the energy
// counter, must agree bit for bit, at on-menu and off-menu clocks, with the
// power and thermal caps off, on, and below the lowest clock's power. A key
// that dropped or merged a field would serve b from a's entry.
func FuzzAnalyticCache(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		var va [14]float64
		for i := range va {
			va[i] = b.value()
		}
		vb := va
		if b.next()%2 == 0 {
			vb[b.next()%14] = b.value()
		} else {
			for i := range vb {
				if b.next()%2 == 1 {
					vb[i] = b.value()
				}
			}
		}
		spec := V100Spec()
		spec.DefaultFreqMHz = offMenuProbes(t, spec)[1] // Run walks from an off-menu clock
		capW := 0.0
		switch b.next() % 4 {
		case 0:
			spec.TThrottleC = 0 // no cap at all
		case 1:
			// the thermal ceiling alone
		case 2:
			capW = 180
		case 3:
			capW = 1 // below every clock's power
		}
		on := spec.CoreFreqsMHz[int(b.next())%len(spec.CoreFreqsMHz)]
		off := spec.DefaultFreqMHz
		cached, direct := mustNew(t, spec, 3), mustNew(t, spec, 3)
		direct.DisableAnalyticCache()
		for _, d := range []*Device{cached, direct} {
			if err := d.SetPowerCapW(capW); err != nil {
				t.Fatal(err)
			}
		}
		pa, pb := fuzzProfile("a", &va), fuzzProfile("b", &vb)
		for _, p := range []kernels.Profile{pa, pb, pa} {
			for _, mhz := range []int{on, off} {
				if got, want := cached.AnalyzeAt(p, mhz), direct.AnalyzeAt(p, mhz); !sameBits(got, want) {
					t.Fatalf("%s %+v at %d MHz: cached %+v, direct %+v", p.Name, p, mhz, got, want)
				}
			}
			gotC, wantC := cached.AnalyzeCurve(p, []int{off, on}), direct.AnalyzeCurve(p, []int{off, on})
			for i := range gotC {
				if !sameBits(gotC[i], wantC[i]) {
					t.Fatalf("%s %+v: AnalyzeCurve[%d] cached %+v, direct %+v", p.Name, p, i, gotC[i], wantC[i])
				}
			}
			gotR, errG := cached.Run(p)
			wantR, errW := direct.Run(p)
			if (errG == nil) != (errW == nil) || !sameBits(gotR, wantR) {
				t.Fatalf("%s %+v: Run cached (%+v, %v), direct (%+v, %v)", p.Name, p, gotR, errG, wantR, errW)
			}
			gotR, errG = cached.RunAt(p, on)
			wantR, errW = direct.RunAt(p, on)
			if (errG == nil) != (errW == nil) || !sameBits(gotR, wantR) {
				t.Fatalf("%s %+v: RunAt %d MHz cached (%+v, %v), direct (%+v, %v)", p.Name, p, on, gotR, errG, wantR, errW)
			}
		}
		if g, w := cached.EnergyCounterJ(), direct.EnergyCounterJ(); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("energy counters: cached %v, direct %v", g, w)
		}
	})
}

func TestAnalyzeAtAllocationFree(t *testing.T) {
	d := mustNew(t, V100Spec(), 1)
	p := computeBound()
	d.AnalyzeAt(p, 1297) // warm: compile + publish happen once, outside the guard
	if allocs := testing.AllocsPerRun(100, func() { d.AnalyzeAt(p, 1297) }); allocs != 0 {
		t.Errorf("cached AnalyzeAt allocates %.1f/op, want 0", allocs)
	}
	off := d.Spec().FMaxMHz() + 50
	if allocs := testing.AllocsPerRun(100, func() { d.AnalyzeAt(p, off) }); allocs != 0 {
		t.Errorf("off-menu AnalyzeAt allocates %.1f/op, want 0", allocs)
	}
	direct := mustNew(t, V100Spec(), 1)
	direct.DisableAnalyticCache()
	if allocs := testing.AllocsPerRun(100, func() { direct.AnalyzeAt(p, 1297) }); allocs != 0 {
		t.Errorf("uncached AnalyzeAt allocates %.1f/op, want 0", allocs)
	}
}

func TestAnalyzeCurveSingleAllocation(t *testing.T) {
	d := mustNew(t, V100Spec(), 1)
	p := computeBound()
	freqs := d.Spec().CoreFreqsMHz
	d.AnalyzeCurve(p, freqs)
	if allocs := testing.AllocsPerRun(20, func() { d.AnalyzeCurve(p, freqs) }); allocs != 1 {
		t.Errorf("cached AnalyzeCurve allocates %.1f/op, want 1 (the result slice)", allocs)
	}
}

func BenchmarkAnalyzeCurve(b *testing.B) {
	// Full V100 clock menu per op; compare against len(menu) AnalyzeAt calls.
	b.Run("cached", func(b *testing.B) {
		d := mustNew(b, V100Spec(), 1)
		p := computeBound()
		freqs := d.Spec().CoreFreqsMHz
		d.AnalyzeCurve(p, freqs)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = d.AnalyzeCurve(p, freqs)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(freqs)), "ns/point")
	})
	b.Run("uncached", func(b *testing.B) {
		d := mustNew(b, V100Spec(), 1)
		d.DisableAnalyticCache()
		p := computeBound()
		freqs := d.Spec().CoreFreqsMHz
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = d.AnalyzeCurve(p, freqs)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(freqs)), "ns/point")
	})
}

// AnalyticCacheStats reports the device's analytic-cache profile-lookup
// hit/miss counters (zero for devices without a cache). Forks share their
// parent's counters.
func (d *Device) AnalyticCacheStats() (hits, misses uint64) {
	if d.cache == nil {
		return 0, 0
	}
	return d.cache.hits.Load(), d.cache.misses.Load()
}
