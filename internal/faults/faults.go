// Package faults is a seeded, deterministic fault-injection layer for the
// simulated platform. The paper's applications run at scales where failures
// are routine — LiGen's EXSCALATE campaigns screened ligands on thousands of
// accelerator nodes (HPC5, MARCONI100) and Cronos runs long MHD simulations
// on distributed clusters — so the runtime layers above the simulator must be
// exercised against the fault classes real silicon produces:
//
//   - transient kernel faults (ECC-style retryable errors): the submission
//     aborts partway through, the device survives, a retry usually succeeds;
//   - permanent device failure: the device is lost for the rest of the
//     campaign, every later submission and clock operation fails;
//   - thermal-throttle windows: for a span of submissions the governor
//     silently caps the effective core clock below the requested one;
//   - clock-set rejections: SetCoreFreq calls fail the way flaky vendor
//     libraries do under driver contention.
//
// Everything is driven by per-device xrand streams derived from the plan
// seed, so a fault campaign is part of the deterministic contract: identical
// seeds produce identical fault sequences regardless of goroutine
// interleaving (each device's stream depends only on that device's own
// operation sequence), and the byte-identical-CSV guarantee of the
// measurement stack extends to fault-injected runs.
package faults

import (
	"errors"
	"fmt"

	"dsenergy/internal/xrand"
)

// Kind classifies an injected fault.
type Kind int

const (
	// Transient is an ECC-style retryable kernel fault.
	Transient Kind = iota
	// Permanent is an unrecoverable device loss.
	Permanent
	// ClockRejected is a failed clock-set operation.
	ClockRejected
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case Transient:
		return "transient"
	case Permanent:
		return "permanent"
	case ClockRejected:
		return "clock-rejected"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Error is an injected fault, carrying enough context for the resilience
// layer to decide between retry, failover and abort.
type Error struct {
	Kind   Kind
	Device int // device index in the plan
	Op     int // 1-based per-device operation index that faulted
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("faults: %s fault on device %d (op %d)", e.Kind, e.Device, e.Op)
}

// IsTransient reports whether err is (or wraps) a retryable injected fault.
func IsTransient(err error) bool {
	var fe *Error
	return errors.As(err, &fe) && fe.Kind == Transient
}

// IsPermanent reports whether err is (or wraps) a permanent device loss.
func IsPermanent(err error) bool {
	var fe *Error
	return errors.As(err, &fe) && fe.Kind == Permanent
}

// IsClockRejected reports whether err is (or wraps) a rejected clock-set
// operation — the flaky-vendor-library failure mode, distinct from the
// device being gone.
func IsClockRejected(err error) bool {
	var fe *Error
	return errors.As(err, &fe) && fe.Kind == ClockRejected
}

// DeviceFailure schedules a permanent failure: the device dies on its
// (AfterSubmits+1)-th submission. AfterSubmits 0 kills the first submission.
type DeviceFailure struct {
	Device       int
	AfterSubmits int
}

// Throttle declares a thermal-throttle window: submissions with 1-based
// per-device index in [FromSubmit, ToSubmit) run with the effective core
// clock capped at CapMHz, whatever clock was requested.
type Throttle struct {
	Device     int
	FromSubmit int
	ToSubmit   int
	CapMHz     int
}

// ClockReject schedules a rejection of the OnSet-th (1-based) clock-set
// call on the device.
type ClockReject struct {
	Device int
	OnSet  int
}

// Plan is a complete, seeded fault campaign. The zero Plan injects nothing;
// attaching it to a cluster is exactly a fault-free run.
type Plan struct {
	// Seed drives the per-device probability draws.
	Seed uint64
	// TransientProb is the per-submission probability of a retryable fault.
	TransientProb float64
	// ClockRejectProb is the per-clock-set probability of rejection.
	ClockRejectProb float64
	// Failures schedules permanent device losses.
	Failures []DeviceFailure
	// Throttles schedules thermal-throttle windows.
	Throttles []Throttle
	// ClockRejects schedules deterministic clock-set rejections.
	ClockRejects []ClockReject
}

// Empty reports whether the plan injects nothing at all.
func (p Plan) Empty() bool {
	return p.TransientProb == 0 && p.ClockRejectProb == 0 &&
		len(p.Failures) == 0 && len(p.Throttles) == 0 && len(p.ClockRejects) == 0
}

// Validate checks the plan against a device count, which must be at least
// 1: a plan that validates can drive NewInjector.
func (p Plan) Validate(devices int) error {
	if devices < 1 {
		return fmt.Errorf("faults: need at least 1 device, got %d", devices)
	}
	// Written as !(0 <= p <= 1) so that NaN, which fails every comparison,
	// is rejected too.
	if !(p.TransientProb >= 0 && p.TransientProb <= 1) {
		return fmt.Errorf("faults: TransientProb %g out of [0,1]", p.TransientProb)
	}
	if !(p.ClockRejectProb >= 0 && p.ClockRejectProb <= 1) {
		return fmt.Errorf("faults: ClockRejectProb %g out of [0,1]", p.ClockRejectProb)
	}
	for i, f := range p.Failures {
		if f.Device < 0 || f.Device >= devices {
			return fmt.Errorf("faults: failure device %d out of range [0,%d)", f.Device, devices)
		}
		if f.AfterSubmits < 0 {
			return fmt.Errorf("faults: failure on device %d scheduled before t=0 (AfterSubmits %d)", f.Device, f.AfterSubmits)
		}
		for _, g := range p.Failures[:i] {
			if g.Device == f.Device {
				return fmt.Errorf("faults: duplicate failure for device %d (a device dies once)", f.Device)
			}
		}
	}
	for i, t := range p.Throttles {
		if t.Device < 0 || t.Device >= devices {
			return fmt.Errorf("faults: throttle device %d out of range [0,%d)", t.Device, devices)
		}
		if t.FromSubmit < 1 || t.ToSubmit <= t.FromSubmit {
			return fmt.Errorf("faults: bad throttle window [%d,%d)", t.FromSubmit, t.ToSubmit)
		}
		if t.CapMHz <= 0 {
			return fmt.Errorf("faults: non-positive throttle cap %d MHz", t.CapMHz)
		}
		// Overlapping windows on one device would leave the effective cap to
		// an implicit tie-break; demand disjoint windows instead of silently
		// combining them.
		for _, u := range p.Throttles[:i] {
			if t.Device == u.Device && t.FromSubmit < u.ToSubmit && u.FromSubmit < t.ToSubmit {
				return fmt.Errorf("faults: overlapping throttle windows [%d,%d) and [%d,%d) on device %d",
					u.FromSubmit, u.ToSubmit, t.FromSubmit, t.ToSubmit, t.Device)
			}
		}
	}
	for _, c := range p.ClockRejects {
		if c.Device < 0 || c.Device >= devices {
			return fmt.Errorf("faults: clock-reject device %d out of range [0,%d)", c.Device, devices)
		}
		if c.OnSet < 1 {
			return fmt.Errorf("faults: clock-reject OnSet %d must be >= 1", c.OnSet)
		}
	}
	return nil
}

// Decision is the injector's verdict on one submission.
type Decision struct {
	// Err, when non-nil, aborts the submission with the given fault.
	Err error
	// Frac is the fraction of the kernel completed before the fault struck
	// (meaningful only with a non-nil Err); the aborted work is wasted but
	// its time and energy were still spent.
	Frac float64
	// CapMHz, when non-zero, caps the effective core clock of this
	// submission (thermal throttling).
	CapMHz int
}

// Injector evaluates a plan for a fixed set of devices.
type Injector struct {
	plan    Plan
	devices []*DeviceInjector
}

// NewInjector builds an injector for the given device count. The plan must
// validate against it.
func NewInjector(plan Plan, devices int) (*Injector, error) {
	if err := plan.Validate(devices); err != nil {
		return nil, err
	}
	in := &Injector{plan: plan}
	base := xrand.New(plan.Seed)
	for i := 0; i < devices; i++ {
		// Per-device streams are split from the plan seed so each device's
		// fault sequence depends only on its own operation order — the
		// property that keeps concurrent shard execution deterministic.
		in.devices = append(in.devices, &DeviceInjector{
			plan:   &in.plan,
			device: i,
			rng:    base.Split(),
		})
	}
	return in, nil
}

// Device returns the per-device injector for device index i.
func (in *Injector) Device(i int) *DeviceInjector { return in.devices[i] }

// DeviceInjector holds the fault state of one device. It is not safe for
// concurrent use on its own; the owning synergy.Queue serializes all
// consultations under its submission lock.
type DeviceInjector struct {
	plan      *Plan
	device    int
	rng       *xrand.Rand
	submits   int
	clockSets int
	dead      bool
}

// Fork derives a child injector for one partition of a pre-split parallel
// execution (e.g. one frequency of a parallel sweep). The child shares the
// plan but owns a stream split off the parent's and restarts the per-device
// operation counters: scheduled windows (Throttles, Failures, ClockRejects)
// are interpreted relative to the fork point, so a plan that throttles
// submissions [1, reps] of a device hits the first reps submissions of every
// partition — the partition-local reading that makes fault campaigns
// schedule-independent. A dead parent stays dead in the child.
func (d *DeviceInjector) Fork() *DeviceInjector {
	return &DeviceInjector{
		plan:   d.plan,
		device: d.device,
		rng:    d.rng.Split(),
		dead:   d.dead,
	}
}

// Absorb folds a forked child's state back into d: operation counters
// accumulate and a permanent failure observed by the child kills the parent.
// Absorbing every fork in fork order restores the aggregate counters a
// serial execution over the same partitions would have produced.
func (d *DeviceInjector) Absorb(child *DeviceInjector) {
	d.submits += child.submits
	d.clockSets += child.clockSets
	if child.dead {
		d.dead = true
	}
}

// OnSubmit is consulted by the device path before every kernel submission
// and returns the injector's decision for it.
func (d *DeviceInjector) OnSubmit() Decision {
	d.submits++
	if d.dead {
		return Decision{Err: &Error{Kind: Permanent, Device: d.device, Op: d.submits}}
	}
	var dec Decision
	for _, t := range d.plan.Throttles {
		if t.Device == d.device && d.submits >= t.FromSubmit && d.submits < t.ToSubmit {
			if dec.CapMHz == 0 || t.CapMHz < dec.CapMHz {
				dec.CapMHz = t.CapMHz
			}
		}
	}
	for _, f := range d.plan.Failures {
		if f.Device == d.device && d.submits > f.AfterSubmits {
			d.dead = true
			dec.Err = &Error{Kind: Permanent, Device: d.device, Op: d.submits}
			dec.Frac = d.rng.Float64()
			return dec
		}
	}
	if d.plan.TransientProb > 0 {
		if d.rng.Float64() < d.plan.TransientProb {
			dec.Err = &Error{Kind: Transient, Device: d.device, Op: d.submits}
			dec.Frac = d.rng.Float64()
			return dec
		}
	}
	return dec
}

// OnClockSet is consulted before every clock-set operation; a non-nil return
// rejects the set and leaves the device clock unchanged.
func (d *DeviceInjector) OnClockSet() error {
	d.clockSets++
	if d.dead {
		return &Error{Kind: Permanent, Device: d.device, Op: d.clockSets}
	}
	for _, c := range d.plan.ClockRejects {
		if c.Device == d.device && c.OnSet == d.clockSets {
			return &Error{Kind: ClockRejected, Device: d.device, Op: d.clockSets}
		}
	}
	if d.plan.ClockRejectProb > 0 {
		if d.rng.Float64() < d.plan.ClockRejectProb {
			return &Error{Kind: ClockRejected, Device: d.device, Op: d.clockSets}
		}
	}
	return nil
}
