package faults

import (
	"errors"
	"testing"
)

// fuzzSchedule decodes a plan's scheduled events from b, five bytes per
// event (at most 16): a kind (mod 3: a failure, a throttle window or a
// clock reject), a device index and three operands, each a signed byte, so
// out-of-range devices, negative counts, empty, inverted and overlapping
// windows and duplicate failures are all reachable.
func fuzzSchedule(p *Plan, b []byte) {
	for k := 0; k+5 <= len(b) && k < 5*16; k += 5 {
		dev, x, y, z := int(int8(b[k+1])), int(int8(b[k+2])), int(int8(b[k+3])), int(int8(b[k+4]))
		switch b[k] % 3 {
		case 0:
			p.Failures = append(p.Failures, DeviceFailure{Device: dev, AfterSubmits: x})
		case 1:
			p.Throttles = append(p.Throttles, Throttle{Device: dev, FromSubmit: x, ToSubmit: y, CapMHz: 10 * z})
		case 2:
			p.ClockRejects = append(p.ClockRejects, ClockReject{Device: dev, OnSet: x})
		}
	}
}

// FuzzPlanValidate fuzzes the fault-plan trust boundary: Validate must
// not panic on any plan and device count, must reject every device count
// below 1, and every plan it accepts must hold both probabilities in
// [0, 1] and drive an injector through 64 submissions and 64 clock sets
// per device, each fault naming its device and each aborted
// fraction in [0, 1). The checked-in corpus (testdata/fuzz/FuzzPlanValidate)
// holds NaN probabilities (the canonical NaN and another payload), ±Inf,
// the closed bounds 0 and 1, and accepted and rejected schedules.
func FuzzPlanValidate(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, transient, clockReject float64, devices int8, schedule []byte) {
		p := Plan{Seed: seed, TransientProb: transient, ClockRejectProb: clockReject}
		fuzzSchedule(&p, schedule)
		if p.Validate(int(devices)) != nil {
			return
		}
		if devices < 1 {
			t.Fatalf("plan validated for %d devices", devices)
		}
		if !(p.TransientProb >= 0 && p.TransientProb <= 1) || !(p.ClockRejectProb >= 0 && p.ClockRejectProb <= 1) {
			t.Fatalf("accepted probabilities %v and %v outside [0, 1]", p.TransientProb, p.ClockRejectProb)
		}
		in, err := NewInjector(p, int(devices))
		if err != nil {
			t.Fatalf("plan validated for %d devices, but NewInjector failed: %v", devices, err)
		}
		var fe *Error
		for i := 0; i < int(devices); i++ {
			d := in.Device(i)
			for op := 0; op < 64; op++ {
				dec := d.OnSubmit()
				if dec.Err != nil && (!errors.As(dec.Err, &fe) || fe.Device != i || !(dec.Frac >= 0 && dec.Frac < 1)) {
					t.Fatalf("device %d submission %d: fault %v with fraction %v", i, op+1, dec.Err, dec.Frac)
				}
				if err := d.OnClockSet(); err != nil && (!errors.As(err, &fe) || fe.Device != i) {
					t.Fatalf("device %d clock set %d: fault %v", i, op+1, err)
				}
			}
		}
	})
}
