package kernels

import (
	"strings"
	"testing"
)

func TestParseListingBasic(t *testing.T) {
	src := `
// a simple kernel
fadd 3
fmul       // default count 1
ld.global 2
sin
`
	mix, err := ParseListing(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if mix.FloatAdd != 3 || mix.FloatMul != 1 || mix.GlobalAcc != 2 || mix.SpecialFn != 1 {
		t.Errorf("parsed mix %+v", mix)
	}
}

func TestParseListingLoops(t *testing.T) {
	src := `
loop 10
    fadd 2
    loop 5
        fmul
    end
    ld.global
end
iadd
`
	mix, err := ParseListing(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if mix.FloatAdd != 20 {
		t.Errorf("loop fadd %g, want 20", mix.FloatAdd)
	}
	if mix.FloatMul != 50 {
		t.Errorf("nested fmul %g, want 50", mix.FloatMul)
	}
	if mix.GlobalAcc != 10 || mix.IntAdd != 1 {
		t.Errorf("mix %+v", mix)
	}
}

func TestParseListingFMA(t *testing.T) {
	mix, err := ParseListing(strings.NewReader("fma 4"))
	if err != nil {
		t.Fatal(err)
	}
	if mix.FloatAdd != 4 || mix.FloatMul != 4 {
		t.Errorf("fma should count both classes: %+v", mix)
	}
}

func TestParseListingErrors(t *testing.T) {
	cases := map[string]string{
		"unknown opcode":    "frobnicate 3",
		"unclosed loop":     "loop 4\nfadd",
		"end without loop":  "fadd\nend",
		"bad trip count":    "loop x\nfadd\nend",
		"zero trips":        "loop 0\nfadd\nend",
		"bad count":         "fadd nope",
		"negative count":    "fadd -2",
		"trailing tokens":   "fadd 2 3",
		"empty listing":     "// nothing here",
		"loop without body": "loop\nend",
	}
	for name, src := range cases {
		if _, err := ParseListing(strings.NewReader(src)); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
}

// TestParseListingRejectsNonFinite feeds every spelling of a non-finite
// number strconv accepts, as a count and as a trip count, plus finite tokens
// whose product or running total overflows: each must be a line error.
func TestParseListingRejectsNonFinite(t *testing.T) {
	var cases []struct{ name, src string }
	for _, tok := range []string{"NaN", "nan", "Inf", "+Inf", "-Inf", "inf", "infinity", "+Infinity", "1e400"} {
		cases = append(cases,
			struct{ name, src string }{"count " + tok, "fadd " + tok},
			struct{ name, src string }{"trips " + tok, "loop " + tok + "\nfadd\nend"})
	}
	cases = append(cases,
		struct{ name, src string }{"count times trips", "loop 1e200\nfadd 1e200\nend"},
		struct{ name, src string }{"nested trips", "loop 1e200\nloop 1e200\nfadd\nend\nend"},
		struct{ name, src string }{"running total", "fmul 1.5e308\nfmul 1.5e308"},
		struct{ name, src string }{"fma total", "fadd 1.5e308\nfma 1.5e308"})
	for _, c := range cases {
		_, err := ParseListing(strings.NewReader(c.src))
		if err == nil || !strings.Contains(err.Error(), "line ") {
			t.Errorf("%s: got %v, want a line error", c.name, err)
		}
	}
}

func TestListingMatchesStaticFeatures(t *testing.T) {
	// The analyzer output feeds StaticFeatures exactly like hand-built
	// mixes: a dock-like inner loop yields a compute-dominated vector.
	src := `
loop 256          // restarts
  loop 4          // iterations
    loop 19       // rotamers
      fmul 45
      fadd 33
      sin 2
      ld.global 4
      ld.shared 8
      iadd 10
    end
  end
end
`
	mix, err := ParseListing(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	f := mix.StaticFeatures()
	// f_float_mul dominates f_gl_access, as in the LiGen dock kernel.
	if f[5] <= f[8] {
		t.Errorf("float_mul fraction %g not above gl_access %g", f[5], f[8])
	}
	var sum float64
	for _, v := range f {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("features sum %g", sum)
	}
}
