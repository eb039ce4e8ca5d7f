package kernels

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func sampleMix() InstructionMix {
	return InstructionMix{
		IntAdd: 1, IntMul: 2, IntDiv: 3, IntBitwise: 4,
		FloatAdd: 5, FloatMul: 6, FloatDiv: 7, SpecialFn: 8,
		GlobalAcc: 9, LocalAcc: 10,
	}
}

func TestTotal(t *testing.T) {
	if got := sampleMix().Total(); got != 55 {
		t.Errorf("total %g, want 55", got)
	}
	if got := (InstructionMix{}).Total(); got != 0 {
		t.Errorf("empty total %g", got)
	}
}

func TestStaticFeaturesSumToOne(t *testing.T) {
	f := sampleMix().StaticFeatures()
	if len(f) != len(FeatureNames) {
		t.Fatalf("feature vector length %d, want %d", len(f), len(FeatureNames))
	}
	var sum float64
	for _, v := range f {
		if v < 0 {
			t.Fatalf("negative feature fraction %g", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("features sum to %g, want 1", sum)
	}
}

func TestStaticFeaturesEmptyMix(t *testing.T) {
	f := (InstructionMix{}).StaticFeatures()
	for i, v := range f {
		if v != 0 {
			t.Errorf("empty mix feature %d = %g, want 0", i, v)
		}
	}
}

func TestScaleLinearity(t *testing.T) {
	f := func(k uint8) bool {
		kk := float64(k)
		m := sampleMix().Scale(kk)
		return math.Abs(m.Total()-55*kk) < 1e-9 &&
			math.Abs(m.ComputeCycles()-sampleMix().ComputeCycles()*kk) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAddCommutes(t *testing.T) {
	a := sampleMix()
	b := InstructionMix{FloatAdd: 3, GlobalAcc: 2}
	if a.Add(b) != b.Add(a) {
		t.Error("Add not commutative")
	}
	if got := a.Add(b).Total(); got != 60 {
		t.Errorf("sum total %g, want 60", got)
	}
}

func TestComputeCyclesWeighting(t *testing.T) {
	// Divisions must cost more than additions.
	add := InstructionMix{FloatAdd: 10}
	div := InstructionMix{FloatDiv: 10}
	if div.ComputeCycles() <= add.ComputeCycles() {
		t.Errorf("division cycles %g not above addition cycles %g",
			div.ComputeCycles(), add.ComputeCycles())
	}
}

func TestFlopsAndBytes(t *testing.T) {
	m := InstructionMix{FloatAdd: 2, FloatMul: 3, FloatDiv: 1, SpecialFn: 4, GlobalAcc: 5}
	if got := m.Flops(); got != 10 {
		t.Errorf("flops %g, want 10", got)
	}
	if got := m.GlobalBytes(); got != 20 {
		t.Errorf("bytes %g, want 20 (4 per access)", got)
	}
}

func TestProfileValidate(t *testing.T) {
	good := Profile{
		Name: "k", Mix: sampleMix(),
		WorkItems: 100, Launches: 1, WorkingSetBytes: 1024, CacheReuse: 0.5,
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Profile)
	}{
		{"zero items", func(p *Profile) { p.WorkItems = 0 }},
		{"zero launches", func(p *Profile) { p.Launches = 0 }},
		{"reuse 1", func(p *Profile) { p.CacheReuse = 1 }},
		{"negative reuse", func(p *Profile) { p.CacheReuse = -0.1 }},
		{"negative ws", func(p *Profile) { p.WorkingSetBytes = -1 }},
		{"empty mix", func(p *Profile) { p.Mix = InstructionMix{} }},
		{"negative count", func(p *Profile) { p.Mix.FloatAdd = -1 }},
	}
	for _, c := range cases {
		p := good
		c.mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

// TestProfileValidateRejectsNonFinite sets each of the 14 numeric fields in
// turn to NaN, +Inf and -Inf: a comparison-only check lets a NaN through
// (every comparison with NaN is false), so each must fail on its own.
func TestProfileValidateRejectsNonFinite(t *testing.T) {
	good := Profile{
		Name: "k", Mix: sampleMix(),
		WorkItems: 100, Launches: 1, WorkingSetBytes: 1024, CacheReuse: 0.5,
	}
	fields := []struct {
		name string
		at   func(*Profile) *float64
	}{
		{"WorkItems", func(p *Profile) *float64 { return &p.WorkItems }},
		{"Launches", func(p *Profile) *float64 { return &p.Launches }},
		{"WorkingSetBytes", func(p *Profile) *float64 { return &p.WorkingSetBytes }},
		{"CacheReuse", func(p *Profile) *float64 { return &p.CacheReuse }},
		{"IntAdd", func(p *Profile) *float64 { return &p.Mix.IntAdd }},
		{"IntMul", func(p *Profile) *float64 { return &p.Mix.IntMul }},
		{"IntDiv", func(p *Profile) *float64 { return &p.Mix.IntDiv }},
		{"IntBitwise", func(p *Profile) *float64 { return &p.Mix.IntBitwise }},
		{"FloatAdd", func(p *Profile) *float64 { return &p.Mix.FloatAdd }},
		{"FloatMul", func(p *Profile) *float64 { return &p.Mix.FloatMul }},
		{"FloatDiv", func(p *Profile) *float64 { return &p.Mix.FloatDiv }},
		{"SpecialFn", func(p *Profile) *float64 { return &p.Mix.SpecialFn }},
		{"GlobalAcc", func(p *Profile) *float64 { return &p.Mix.GlobalAcc }},
		{"LocalAcc", func(p *Profile) *float64 { return &p.Mix.LocalAcc }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			p := good
			*f.at(&p) = v
			err := p.Validate()
			var pe errProfile
			if !errors.As(err, &pe) {
				t.Errorf("%s = %v: Validate returned %v, want an errProfile", f.name, v, err)
			}
		}
	}
}
