package faults

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

func TestEmptyPlanInjectsNothing(t *testing.T) {
	in, err := NewInjector(Plan{Seed: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(in.devices); i++ {
		d := in.Device(i)
		for s := 0; s < 100; s++ {
			if dec := d.OnSubmit(); dec.Err != nil || dec.CapMHz != 0 {
				t.Fatalf("empty plan injected %+v", dec)
			}
			if err := d.OnClockSet(); err != nil {
				t.Fatalf("empty plan rejected clock set: %v", err)
			}
		}
	}
	if !(Plan{}).Empty() {
		t.Error("zero plan not Empty")
	}
	if (Plan{TransientProb: 0.1}).Empty() {
		t.Error("plan with transient prob reported Empty")
	}
}

func TestPlanValidate(t *testing.T) {
	bad := []struct {
		name string
		plan Plan
	}{
		{"negative transient prob", Plan{TransientProb: -0.1}},
		{"transient prob above 1", Plan{TransientProb: 1.1}},
		{"clock-reject prob above 1", Plan{ClockRejectProb: 2}},
		{"NaN transient prob", Plan{TransientProb: math.NaN()}},
		{"+Inf transient prob", Plan{TransientProb: math.Inf(1)}},
		{"-Inf transient prob", Plan{TransientProb: math.Inf(-1)}},
		{"NaN clock-reject prob", Plan{ClockRejectProb: math.NaN()}},
		{"+Inf clock-reject prob", Plan{ClockRejectProb: math.Inf(1)}},
		{"-Inf clock-reject prob", Plan{ClockRejectProb: math.Inf(-1)}},
		{"failure device out of range", Plan{Failures: []DeviceFailure{{Device: 5}}}},
		{"failure before t=0", Plan{Failures: []DeviceFailure{{Device: 0, AfterSubmits: -1}}}},
		{"duplicate failure for one device", Plan{Failures: []DeviceFailure{
			{Device: 1, AfterSubmits: 2}, {Device: 1, AfterSubmits: 9}}}},
		{"throttle from-submit below 1", Plan{Throttles: []Throttle{
			{Device: 0, FromSubmit: 0, ToSubmit: 3, CapMHz: 800}}}},
		{"inverted throttle window", Plan{Throttles: []Throttle{
			{Device: 0, FromSubmit: 4, ToSubmit: 2, CapMHz: 800}}}},
		{"empty throttle window", Plan{Throttles: []Throttle{
			{Device: 0, FromSubmit: 3, ToSubmit: 3, CapMHz: 800}}}},
		{"non-positive throttle cap", Plan{Throttles: []Throttle{
			{Device: 0, FromSubmit: 1, ToSubmit: 2, CapMHz: 0}}}},
		{"overlapping throttle windows", Plan{Throttles: []Throttle{
			{Device: 0, FromSubmit: 2, ToSubmit: 5, CapMHz: 900},
			{Device: 0, FromSubmit: 4, ToSubmit: 7, CapMHz: 700}}}},
		{"nested throttle windows", Plan{Throttles: []Throttle{
			{Device: 0, FromSubmit: 1, ToSubmit: 10, CapMHz: 900},
			{Device: 0, FromSubmit: 3, ToSubmit: 4, CapMHz: 700}}}},
		{"clock-reject device out of range", Plan{ClockRejects: []ClockReject{{Device: -1, OnSet: 1}}}},
		{"clock-reject before first set", Plan{ClockRejects: []ClockReject{{Device: 0, OnSet: 0}}}},
	}
	for _, tc := range bad {
		if err := tc.plan.Validate(2); err == nil {
			t.Errorf("%s: plan validated: %+v", tc.name, tc.plan)
		}
	}
	good := []struct {
		name string
		plan Plan
	}{
		{"empty plan", Plan{}},
		{"certain faults", Plan{TransientProb: 1, ClockRejectProb: 1}},
		{"adjacent throttle windows", Plan{Throttles: []Throttle{
			{Device: 0, FromSubmit: 2, ToSubmit: 4, CapMHz: 900},
			{Device: 0, FromSubmit: 4, ToSubmit: 6, CapMHz: 700}}}},
		{"same window on different devices", Plan{Throttles: []Throttle{
			{Device: 0, FromSubmit: 2, ToSubmit: 4, CapMHz: 900},
			{Device: 1, FromSubmit: 2, ToSubmit: 4, CapMHz: 900}}}},
		{"one failure per device", Plan{Failures: []DeviceFailure{
			{Device: 0, AfterSubmits: 3}, {Device: 1, AfterSubmits: 3}}}},
	}
	for _, tc := range good {
		if err := tc.plan.Validate(2); err != nil {
			t.Errorf("%s: plan rejected: %v", tc.name, err)
		}
	}
	// No device can run a plan, however empty: Validate agrees with
	// NewInjector's precondition.
	for _, devices := range []int{0, -1} {
		for _, p := range []Plan{{}, {TransientProb: 0.5}} {
			if err := p.Validate(devices); err == nil {
				t.Errorf("plan %+v validated for %d devices", p, devices)
			}
		}
	}
	if _, err := NewInjector(Plan{}, 0); err == nil {
		t.Error("injector accepted zero devices")
	}
}

func TestScheduledPermanentFailure(t *testing.T) {
	plan := Plan{Seed: 7, Failures: []DeviceFailure{{Device: 1, AfterSubmits: 2}}}
	in, err := NewInjector(plan, 3)
	if err != nil {
		t.Fatal(err)
	}
	d := in.Device(1)
	for s := 1; s <= 2; s++ {
		if dec := d.OnSubmit(); dec.Err != nil {
			t.Fatalf("submission %d faulted early: %v", s, dec.Err)
		}
	}
	dec := d.OnSubmit()
	if !IsPermanent(dec.Err) {
		t.Fatalf("submission 3 should be the permanent failure, got %v", dec.Err)
	}
	if dec.Frac < 0 || dec.Frac >= 1 {
		t.Errorf("fault fraction %g out of [0,1)", dec.Frac)
	}
	if !d.dead {
		t.Error("device not marked dead")
	}
	// Everything after death fails, including clock sets.
	if dec := d.OnSubmit(); !IsPermanent(dec.Err) {
		t.Error("post-death submission did not fail permanently")
	}
	if err := d.OnClockSet(); !IsPermanent(err) {
		t.Error("post-death clock set did not fail permanently")
	}
	// Other devices are unaffected.
	if dec := in.Device(0).OnSubmit(); dec.Err != nil {
		t.Errorf("healthy device faulted: %v", dec.Err)
	}
}

func TestThrottleWindowCapsClock(t *testing.T) {
	plan := Plan{Seed: 3, Throttles: []Throttle{
		{Device: 0, FromSubmit: 2, ToSubmit: 4, CapMHz: 900},
		{Device: 0, FromSubmit: 4, ToSubmit: 5, CapMHz: 700},
	}}
	in, err := NewInjector(plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := in.Device(0)
	want := []int{0, 900, 900, 700, 0} // disjoint adjacent windows
	for s, cap := range want {
		dec := d.OnSubmit()
		if dec.Err != nil {
			t.Fatalf("submission %d faulted: %v", s+1, dec.Err)
		}
		if dec.CapMHz != cap {
			t.Errorf("submission %d cap %d MHz, want %d", s+1, dec.CapMHz, cap)
		}
	}
}

func TestScheduledClockReject(t *testing.T) {
	plan := Plan{Seed: 5, ClockRejects: []ClockReject{{Device: 0, OnSet: 2}}}
	in, err := NewInjector(plan, 2)
	if err != nil {
		t.Fatal(err)
	}
	d := in.Device(0)
	if err := d.OnClockSet(); err != nil {
		t.Fatalf("first clock set rejected: %v", err)
	}
	err2 := d.OnClockSet()
	var fe *Error
	if !errors.As(err2, &fe) || fe.Kind != ClockRejected {
		t.Fatalf("second clock set should be rejected, got %v", err2)
	}
	if IsTransient(err2) || IsPermanent(err2) {
		t.Error("clock rejection misclassified")
	}
	if !IsClockRejected(err2) {
		t.Error("IsClockRejected missed a clock rejection")
	}
	if !IsClockRejected(fmt.Errorf("wrapped: %w", err2)) {
		t.Error("IsClockRejected does not unwrap")
	}
	if err := d.OnClockSet(); err != nil {
		t.Errorf("third clock set rejected: %v", err)
	}
}

func TestTransientProbabilityIsSeededAndDeterministic(t *testing.T) {
	plan := Plan{Seed: 11, TransientProb: 0.3}
	sequence := func(seed uint64) string {
		p := plan
		p.Seed = seed
		in, err := NewInjector(p, 2)
		if err != nil {
			t.Fatal(err)
		}
		s := ""
		for i := 0; i < 200; i++ {
			dec := in.Device(0).OnSubmit()
			if dec.Err != nil {
				if !IsTransient(dec.Err) {
					t.Fatalf("unexpected fault kind: %v", dec.Err)
				}
				s += "x"
			} else {
				s += "."
			}
		}
		return s
	}
	a, b := sequence(11), sequence(11)
	if a != b {
		t.Fatalf("identical seeds produced different fault sequences:\n%s\n%s", a, b)
	}
	if c := sequence(12); a == c {
		t.Error("different seeds produced identical fault sequences")
	}
	// The empirical rate should be in the right ballpark for prob 0.3.
	n := 0
	for _, ch := range a {
		if ch == 'x' {
			n++
		}
	}
	if n < 30 || n > 90 {
		t.Errorf("transient rate %d/200 implausible for prob 0.3", n)
	}
}

func TestDeviceStreamsAreIndependent(t *testing.T) {
	// Consulting device 0 more often must not change device 1's sequence:
	// the resilient cluster relies on this to stay deterministic when shard
	// requeueing shifts work between devices.
	run := func(extraOnDev0 int) string {
		in, err := NewInjector(Plan{Seed: 21, TransientProb: 0.25}, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < extraOnDev0; i++ {
			in.Device(0).OnSubmit()
		}
		s := ""
		for i := 0; i < 100; i++ {
			if dec := in.Device(1).OnSubmit(); dec.Err != nil {
				s += "x"
			} else {
				s += "."
			}
		}
		return s
	}
	if run(0) != run(57) {
		t.Error("device 1's fault stream depends on device 0's operation count")
	}
}

func TestErrorStringsAndKinds(t *testing.T) {
	for _, k := range []Kind{Transient, Permanent, ClockRejected, Kind(99)} {
		if k.String() == "" {
			t.Error("empty kind name")
		}
	}
	e := &Error{Kind: Transient, Device: 2, Op: 5}
	if e.Error() == "" {
		t.Error("empty error message")
	}
	wrapped := fmt.Errorf("synergy: device: %w", e)
	if !IsTransient(wrapped) {
		t.Error("IsTransient does not unwrap")
	}
	if IsTransient(nil) || IsPermanent(nil) || IsClockRejected(nil) {
		t.Error("nil error classified as fault")
	}
}
