// Package gpusim is an analytical simulator of DVFS-capable GPUs.
//
// It stands in for the paper's physical testbed (NVIDIA V100 and AMD MI100
// driven through NVML / ROCm-SMI): a device exposes a table of core
// frequencies, accepts kernel profiles (see internal/kernels) and returns
// execution time and energy computed from a roofline execution model coupled
// with a CMOS power model. The simulator reproduces the functional
// relationships the paper's characterization rests on:
//
//   - compute-bound kernels: time ∝ 1/f, so up-clocking buys speedup at a
//     super-linear energy cost (P ∝ V²f with V rising with f);
//   - memory-bound kernels: time is flat in the core frequency, so
//     down-clocking saves energy at near-zero performance loss;
//   - small launches under-utilize the device, shifting kernels toward the
//     latency/compute regime and diluting active power with idle power.
//
// All randomness (measurement noise) is drawn from a seeded generator, so
// simulated experiments are reproducible.
package gpusim

import (
	"fmt"
	"sort"

	"dsenergy/internal/kernels"
	"dsenergy/internal/obs"
	"dsenergy/internal/xrand"
)

// Vendor distinguishes the frequency-control conventions of the simulated
// device. NVIDIA devices expose an explicit default application clock; AMD
// devices default to an automatic performance level (the paper uses the
// frequency chosen by the "auto" governor as the AMD baseline).
type Vendor int

const (
	// NVIDIA marks devices with an explicit default core clock.
	NVIDIA Vendor = iota
	// AMD marks devices whose baseline is the automatic performance level.
	AMD
)

// String returns the vendor name.
func (v Vendor) String() string {
	switch v {
	case NVIDIA:
		return "NVIDIA"
	case AMD:
		return "AMD"
	default:
		return fmt.Sprintf("Vendor(%d)", int(v))
	}
}

// Spec is the full static description of a simulated device: geometry,
// frequency table, memory system and power-model coefficients. All power
// coefficients are in watts (per the unit noted on each field); frequencies
// are in MHz.
type Spec struct {
	Name   string
	Vendor Vendor

	// Compute geometry.
	NumCU      int     // streaming multiprocessors / compute units
	LanesPerCU int     // FP32 lanes per CU
	ComputeEff float64 // achieved fraction of peak issue rate (code quality)

	// Occupancy model.
	ConcurrentItems float64 // work items resident at full occupancy
	BWSaturateItems float64 // work items needed to saturate DRAM bandwidth

	// Frequency control.
	CoreFreqsMHz   []int // ascending table of selectable core frequencies
	DefaultFreqMHz int   // NVIDIA default application clock (0 for AMD)
	AutoFreqMHz    int   // AMD auto performance level (0 for NVIDIA)
	MemFreqMHz     int   // fixed memory clock

	// Memory system.
	PeakBWGBs float64 // peak DRAM bandwidth at MemFreqMHz
	MemEff    float64 // achieved fraction of peak bandwidth
	LLCBytes  float64 // last-level cache capacity
	// BWKnee is the fraction of f_max below which the core can no longer
	// keep the memory system saturated; below it achieved bandwidth decays
	// smoothly (exponent BWKneeExp).
	BWKnee    float64
	BWKneeExp float64

	// Voltage/frequency curve: V(f) = VMin for f <= VKnee·f_max, rising as
	// VMin + (VMax-VMin)·x^VExp above the knee, with x the normalized
	// position between the knee and f_max.
	VMin, VMax float64
	VKnee      float64
	VExp       float64

	// Power model (watts).
	IdleW        float64 // constant board power
	LeakCoeffW   float64 // leakage: LeakCoeffW · V²
	DynCoeffW    float64 // dynamic: DynCoeffW · NumCU · V² · f[GHz] · activity
	ClockCoeffW  float64 // clock tree / uncore: ClockCoeffW · V² · f[GHz] while busy
	MemCoeffWGBs float64 // memory: MemCoeffWGBs · achieved GB/s

	// BWMinUtil is the bandwidth-utilization floor: even a single resident
	// wave keeps a small fraction of DRAM bandwidth busy through its
	// outstanding misses (0 selects the default of 0.02).
	BWMinUtil float64

	// Thermal model (steady state): the die temperature under sustained
	// power P is TAmbientC + ThermalResKW·P. When it would exceed
	// TThrottleC, the governor reduces the clock exactly like a power cap
	// at (TThrottleC−TAmbientC)/ThermalResKW watts. A zero TThrottleC
	// disables thermal throttling.
	ThermalResKW float64 // K per watt
	TAmbientC    float64
	TThrottleC   float64

	// Kernel launch overhead: LaunchFixedS + LaunchCycles/f per launch.
	LaunchFixedS float64
	LaunchCycles float64
}

// Validate reports whether the spec is internally consistent.
func (s Spec) Validate() error {
	switch {
	case s.NumCU <= 0 || s.LanesPerCU <= 0:
		return fmt.Errorf("gpusim: %s: non-positive compute geometry", s.Name)
	case len(s.CoreFreqsMHz) < 2:
		return fmt.Errorf("gpusim: %s: frequency table too small", s.Name)
	case !sort.IntsAreSorted(s.CoreFreqsMHz):
		return fmt.Errorf("gpusim: %s: frequency table not ascending", s.Name)
	// The range checks are negated conjunctions so that NaN, which fails
	// every comparison, is rejected too.
	case !(s.ComputeEff > 0 && s.ComputeEff <= 1):
		return fmt.Errorf("gpusim: %s: ComputeEff out of (0,1]", s.Name)
	case !(s.MemEff > 0 && s.MemEff <= 1):
		return fmt.Errorf("gpusim: %s: MemEff out of (0,1]", s.Name)
	case !(s.VMin > 0 && s.VMax >= s.VMin):
		return fmt.Errorf("gpusim: %s: bad voltage range", s.Name)
	case s.Vendor == NVIDIA && s.DefaultFreqMHz == 0:
		return fmt.Errorf("gpusim: %s: NVIDIA device needs DefaultFreqMHz", s.Name)
	case s.Vendor == AMD && s.AutoFreqMHz == 0:
		return fmt.Errorf("gpusim: %s: AMD device needs AutoFreqMHz", s.Name)
	}
	// sort.IntsAreSorted accepts adjacent duplicates, but the menu must be
	// strictly ascending: the analytic cache keys dense curve slots by menu
	// position, and a repeated clock would alias two slots to one frequency.
	for i := 1; i < len(s.CoreFreqsMHz); i++ {
		if s.CoreFreqsMHz[i] == s.CoreFreqsMHz[i-1] {
			return &DuplicateFreqError{Device: s.Name, MHz: s.CoreFreqsMHz[i]}
		}
	}
	return nil
}

// DuplicateFreqError reports a core-frequency table with a repeated entry.
type DuplicateFreqError struct {
	Device string // spec name
	MHz    int    // the duplicated clock
}

func (e *DuplicateFreqError) Error() string {
	return fmt.Sprintf("gpusim: %s: duplicate core frequency %d MHz in table", e.Device, e.MHz)
}

// FMaxMHz returns the highest selectable core frequency.
func (s Spec) FMaxMHz() int { return s.CoreFreqsMHz[len(s.CoreFreqsMHz)-1] }

// FMinMHz returns the lowest selectable core frequency.
func (s Spec) FMinMHz() int { return s.CoreFreqsMHz[0] }

// BaselineFreqMHz returns the frequency used as the speedup/energy baseline:
// the default application clock on NVIDIA, the auto performance level on AMD.
func (s Spec) BaselineFreqMHz() int {
	if s.Vendor == AMD {
		return s.AutoFreqMHz
	}
	return s.DefaultFreqMHz
}

// NearestFreqMHz returns the table frequency closest to mhz.
func (s Spec) NearestFreqMHz(mhz int) int {
	i := sort.SearchInts(s.CoreFreqsMHz, mhz)
	if i == 0 {
		return s.CoreFreqsMHz[0]
	}
	if i == len(s.CoreFreqsMHz) {
		return s.FMaxMHz()
	}
	lo, hi := s.CoreFreqsMHz[i-1], s.CoreFreqsMHz[i]
	if mhz-lo <= hi-mhz {
		return lo
	}
	return hi
}

// FreqsAbove returns the table frequencies at or above frac·f_max. The
// modeling experiments sweep this band (the paper trains on "each (or a
// part) of the frequency configurations"; clocks below the memory-latency
// floor are never Pareto-relevant on either device).
func (s Spec) FreqsAbove(frac float64) []int {
	min := frac * float64(s.FMaxMHz())
	var out []int
	for _, f := range s.CoreFreqsMHz {
		if float64(f) >= min {
			out = append(out, f)
		}
	}
	return out
}

// FloorFreqMHz returns the highest table frequency at or below mhz, or the
// lowest table frequency when mhz is below the whole table — a governor
// enforcing a cap cannot stop the clock entirely.
func (s Spec) FloorFreqMHz(mhz int) int {
	i := sort.SearchInts(s.CoreFreqsMHz, mhz+1)
	if i == 0 {
		return s.CoreFreqsMHz[0]
	}
	return s.CoreFreqsMHz[i-1]
}

// HasFreq reports whether mhz is a selectable core frequency.
func (s Spec) HasFreq(mhz int) bool { return hasFreq(s.CoreFreqsMHz, mhz) }

func hasFreq(table []int, mhz int) bool {
	i := sort.SearchInts(table, mhz)
	return i < len(table) && table[i] == mhz
}

// Device is a simulated GPU. It carries the current core frequency, an
// energy counter in the style of NVML's totalEnergyConsumption, and a private
// noise generator. Device is not safe for concurrent use; callers that share
// one device across goroutines must serialize access (the synergy layer does).
type Device struct {
	spec        Spec
	coreFreqMHz int
	energyJ     float64
	noise       *NoiseModel
	// rng is the noise stream behind the noise model, retained so Fork can
	// split it deterministically.
	rng *xrand.Rand
	// tables caches the frequency-dependent model terms over the clock menu
	// (built once in New, immutable, shared by forks); cache memoizes
	// compiled profiles and their dense menu curves. Both are safe to share
	// across every fork of this device: the analytic model is a pure
	// function of (spec, profile, frequency), so cached values are
	// bit-identical to recomputed ones.
	tables *freqTables
	cache  *analyticCache
	// lastEntry memoizes the most recent cache entry served to this device
	// (sweeps touch one kernel across the whole menu, so the memo turns the
	// common lookup into a key compare). Private per device — never shared
	// with forks' future lookups racing — and safe to seed from the parent at
	// Fork: entries are immutable and live forever.
	lastEntry *profileEntry
	// Observability handles (nil when no observer is attached; all no-ops
	// then). Resolved once in SetObserver and shared by forks — counter
	// accumulation is order-invariant, so sharing cannot perturb exports.
	launches *obs.Counter
	dvfs     *obs.Counter
}

// New constructs a device from spec with the measurement-noise model seeded
// by seed. The core clock starts at the vendor baseline.
func New(spec Spec, seed uint64) (*Device, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	d := &Device{
		spec:  spec,
		rng:   xrand.New(seed),
		cache: newAnalyticCache(),
	}
	d.tables = newFreqTables(&d.spec)
	d.noise = NewNoiseModel(DefaultNoiseSigma, d.rng)
	d.coreFreqMHz = spec.BaselineFreqMHz()
	return d, nil
}

// Fork derives a child device for one task of a pre-split parallel
// execution: same spec and clock, a fresh energy counter and fresh launch
// and DVFS tallies (Absorb folds all three back), a noise stream split off
// the parent's (so the child's draws are deterministic in the fork order,
// not in the schedule), and the parent's shared analytic cache. Forking
// advances the parent's noise stream by exactly one draw, like any other
// stream split.
func (d *Device) Fork() *Device {
	child := &Device{
		spec:        d.spec,
		coreFreqMHz: d.coreFreqMHz,
		rng:         d.rng.Split(),
		tables:      d.tables,
		cache:       d.cache,
		lastEntry:   d.lastEntry,
		launches:    d.launches.Fork(),
		dvfs:        d.dvfs.Fork(),
	}
	child.noise = NewNoiseModel(d.noise.Sigma, child.rng)
	return child
}

// Absorb folds a child from Fork back into d: its energy and its launch and
// DVFS counts. A child that is never absorbed leaves d's counters as they
// were.
func (d *Device) Absorb(child *Device) {
	d.energyJ += child.energyJ
	d.launches.Absorb(child.launches)
	d.dvfs.Absorb(child.dvfs)
}

// SetObserver attaches an observability sink to the device: kernel-launch
// and DVFS-transition counters plus the shared analytic cache's hit/miss
// counters (unstable tier — parallel forks can race on a miss, so those
// totals depend on scheduling). Call before the device is used from worker
// goroutines; forks inherit the parent's handles. A nil observer detaches.
func (d *Device) SetObserver(o *obs.Observer) {
	m := o.Metrics()
	d.launches = m.Counter("gpusim_kernel_launches_total", obs.L("device", d.spec.Name))
	d.dvfs = m.Counter("gpusim_dvfs_transitions_total", obs.L("device", d.spec.Name))
	if d.cache != nil {
		d.cache.setObserver(m, d.spec.Name)
	}
}

// Spec returns the device description.
func (d *Device) Spec() Spec { return d.spec }

// HasFreq reports whether mhz is a selectable core frequency of the device.
// It reads the frequency table in place: the per-dispatch clock checks go
// through it rather than copy the whole Spec into a value receiver.
func (d *Device) HasFreq(mhz int) bool { return hasFreq(d.spec.CoreFreqsMHz, mhz) }

// CoreFreqMHz returns the currently selected core frequency.
func (d *Device) CoreFreqMHz() int { return d.coreFreqMHz }

// SetCoreFreqMHz selects a core frequency from the device table. Frequencies
// not in the table are rejected, mirroring NVML semantics.
func (d *Device) SetCoreFreqMHz(mhz int) error {
	if !d.HasFreq(mhz) {
		return fmt.Errorf("gpusim: %s: frequency %d MHz not in table (range %d-%d)",
			d.spec.Name, mhz, d.spec.FMinMHz(), d.spec.FMaxMHz())
	}
	if mhz != d.coreFreqMHz {
		d.dvfs.Inc()
	}
	d.coreFreqMHz = mhz
	return nil
}

// ResetCoreFreq restores the vendor baseline clock.
func (d *Device) ResetCoreFreq() {
	if base := d.spec.BaselineFreqMHz(); base != d.coreFreqMHz {
		d.dvfs.Inc()
		d.coreFreqMHz = base
	}
}

// thermalCapW is the thermal ceiling: the sustained power at which the die
// reaches the throttle temperature, or 0 when the spec never throttles.
func (d *Device) thermalCapW() float64 {
	s := &d.spec
	if s.TThrottleC > 0 && s.ThermalResKW > 0 {
		if thermal := (s.TThrottleC - s.TAmbientC) / s.ThermalResKW; thermal > 0 {
			return thermal
		}
	}
	return 0
}

// EnergyCounterJ returns the cumulative energy consumed by all kernels run on
// this device, in joules. The synergy layer reads it before and after a
// submission to attribute energy to kernels.
func (d *Device) EnergyCounterJ() float64 { return d.energyJ }

// AddEnergyJ advances the cumulative energy counter by the given joules.
// The synergy layer uses it to charge the partial execution of submissions
// aborted by an injected fault: the work is wasted, but the board still
// burned the energy and real counters would show it.
func (d *Device) AddEnergyJ(energyJ float64) { d.energyJ += energyJ }

// Result is the outcome of executing a kernel profile.
type Result struct {
	TimeS     float64 // wall-clock execution time
	EnergyJ   float64 // energy attributed to the execution
	AvgPowerW float64 // EnergyJ / TimeS
}

// Run executes the profile at the current core frequency (possibly
// throttled by the thermal ceiling) with measurement noise applied, advances
// the energy counter, and returns the observation.
func (d *Device) Run(p kernels.Profile) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	return d.observe(&p, d.coreFreqMHz), nil
}

// RunAt is Run at an explicit frequency; the device clock is left unchanged.
func (d *Device) RunAt(p kernels.Profile, mhz int) (Result, error) {
	if !d.HasFreq(mhz) {
		return Result{}, fmt.Errorf("gpusim: %s: frequency %d MHz not in table", d.spec.Name, mhz)
	}
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	return d.observe(&p, mhz), nil
}

// observe runs a validated profile requested at mhz. The thermal governor
// keeps the requested clock when the model's power there fits the thermal
// ceiling; otherwise it runs the highest table clock at or below the
// request whose power fits, or the lowest clock when none does (a real
// governor cannot stop the clock entirely). The throttle check and the
// result both read the profile's one cache entry. The noiseless result is
// then perturbed and charged to the energy counter.
func (d *Device) observe(p *kernels.Profile, mhz int) Result {
	var scratch Breakdown
	e := d.entryFor(p)
	b := d.breakdownAt(&scratch, e, p, mhz)
	if cap := d.thermalCapW(); cap != 0 && !(b.TotalPowerW <= cap) {
		freqs := d.spec.CoreFreqsMHz
		i := min(sort.SearchInts(freqs, mhz), len(freqs)-1)
		for i > 0 && !(d.breakdownAt(&scratch, e, p, freqs[i]).TotalPowerW <= cap) {
			i--
		}
		b = d.breakdownAt(&scratch, e, p, freqs[i])
	}
	r := d.noise.Perturb(Result{TimeS: b.TimeS, EnergyJ: b.EnergyJ, AvgPowerW: b.TotalPowerW})
	d.energyJ += r.EnergyJ
	d.launches.Inc()
	return r
}
