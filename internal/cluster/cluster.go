// Package cluster models multi-GPU distributed execution in the role of the
// Celerity runtime the paper builds on (Thoman et al., Euro-Par'19): Cronos'
// solver was ported to Celerity to run on distributed-memory clusters, and
// LiGen's virtual-screening campaigns ran on thousands of accelerator nodes
// (EXSCALATE on HPC5 and MARCONI100).
//
// The model is deliberately simple and standard: work is partitioned across
// devices; compute time per device comes from the single-GPU simulator;
// distributed Cronos adds per-step halo-exchange communication over an
// interconnect with bandwidth and latency; the job's wall time is the
// slowest device's (bulk-synchronous steps) and the job's energy is the sum
// over devices. This reproduces the canonical strong-scaling behaviour:
// embarrassingly parallel screening scales almost perfectly, stencil codes
// lose efficiency as halos start to dominate shrinking slabs.
package cluster

import (
	"errors"
	"fmt"
	"strconv"

	"dsenergy/internal/cronos"
	"dsenergy/internal/faults"
	"dsenergy/internal/gpusim"
	"dsenergy/internal/kernels"
	"dsenergy/internal/ligen"
	"dsenergy/internal/obs"
	"dsenergy/internal/synergy"
)

// Interconnect describes the network between devices.
type Interconnect struct {
	// BandwidthGBs is the per-link bandwidth (e.g. ~25 GB/s for the
	// NVLink/InfiniBand class fabrics of the paper's machines).
	BandwidthGBs float64
	// LatencyS is the per-message latency.
	LatencyS float64
}

// DefaultInterconnect returns an InfiniBand-class fabric.
func DefaultInterconnect() Interconnect {
	return Interconnect{BandwidthGBs: 25, LatencyS: 3e-6}
}

// Cluster is a set of identical simulated devices joined by an interconnect.
type Cluster struct {
	queues []*synergy.Queue
	net    Interconnect
	// inj is non-nil when a non-empty fault plan is attached; it switches
	// RunCronos/ScreenLiGen onto the resilient execution path.
	inj  *faults.Injector
	rc   ResilienceConfig
	dead []bool
	// obsv records cluster-level spans (device runs, steps, rounds, failover
	// and checkpoint events) on simulated time; om holds the pre-resolved
	// counter handles. Both are no-ops when unset. Spans are only appended
	// from the barrier-aggregation sections, which run in device-index order,
	// so the trace is schedule-independent.
	obsv *obs.Observer
	om   clusterObsHandles
}

// clusterObsHandles are the cluster's pre-resolved metric handles; the zero
// value disables every increment.
type clusterObsHandles struct {
	retries     *obs.Counter
	failovers   *obs.Counter
	requeued    *obs.Counter
	checkpoints *obs.Counter
}

// SetObserver attaches an observability sink to the cluster and every
// device queue in it (nil detaches). Call before runs start.
func (c *Cluster) SetObserver(o *obs.Observer) {
	c.obsv = o
	if o == nil {
		c.om = clusterObsHandles{}
	} else {
		m := o.Metrics()
		c.om = clusterObsHandles{
			retries:     m.Counter("cluster_retries_total"),
			failovers:   m.Counter("cluster_failovers_total"),
			requeued:    m.Counter("cluster_requeued_shards_total"),
			checkpoints: m.Counter("cluster_checkpoints_total"),
		}
	}
	for _, q := range c.queues {
		q.SetObserver(o)
	}
}

// New builds an n-device homogeneous cluster of the given spec. Devices are
// renamed "<name> #i" so every node stays individually addressable (the
// platform rejects duplicate device names).
func New(seed uint64, spec gpusim.Spec, n int, net Interconnect) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 device, got %d", n)
	}
	if net.BandwidthGBs <= 0 || net.LatencyS < 0 {
		return nil, fmt.Errorf("cluster: invalid interconnect %+v", net)
	}
	specs := make([]gpusim.Spec, n)
	for i := range specs {
		specs[i] = spec
		specs[i].Name = fmt.Sprintf("%s #%d", spec.Name, i)
	}
	p, err := synergy.NewPlatform(seed, specs...)
	if err != nil {
		return nil, err
	}
	return &Cluster{queues: p.Queues(), net: net, dead: make([]bool, n)}, nil
}

// ErrNoSurvivingDevices reports that graceful degradation exhausted the
// platform: every device has permanently failed. Callers branch on it with
// errors.Is to distinguish "the cluster is gone" from ordinary run errors.
var ErrNoSurvivingDevices = errors.New("no surviving devices")

// MarkDead records a permanent loss of device i observed by an external
// driver (e.g. the scheduler watching a fault surface directly), excluding
// it from subsequent resilient runs. Out-of-range indices are ignored.
func (c *Cluster) MarkDead(i int) {
	if i >= 0 && i < len(c.dead) {
		c.dead[i] = true
	}
}

// Queues exposes the device queues (e.g. for frequency control).
func (c *Cluster) Queues() []*synergy.Queue { return c.queues }

// SetCoreFreqMHz pins every device to the same clock, all-or-nothing: if any
// device rejects the set, devices already pinned are rolled back to their
// previous clock and the error is returned. Without the rollback a partial
// failure would leave the cluster at mixed clocks, silently corrupting every
// bulk-synchronous timing downstream.
func (c *Cluster) SetCoreFreqMHz(mhz int) error {
	prev := make([]int, len(c.queues))
	for i, q := range c.queues {
		prev[i] = q.PinnedFreqMHz()
	}
	for i, q := range c.queues {
		err := q.SetCoreFreqMHz(mhz)
		if err == nil {
			continue
		}
		for j := i - 1; j >= 0; j-- {
			if prev[j] == 0 {
				c.queues[j].ResetFrequency()
			} else if rbErr := c.queues[j].SetCoreFreqMHz(prev[j]); rbErr != nil {
				// Best effort: a device that cannot take its old clock back
				// (e.g. it just died) is reset to the vendor baseline.
				c.queues[j].ResetFrequency()
			}
		}
		return fmt.Errorf("cluster: device %d rejected %d MHz (cluster rolled back): %w", i, mhz, err)
	}
	return nil
}

// Result is a distributed run's outcome. The resilience fields make the cost
// of surviving faults a first-class, measurable time/energy trade-off: a
// fault-free run reports zeros there, a faulty run reports how much of its
// bill was retries, failovers, checkpoints and re-executed work.
type Result struct {
	TimeS     float64   // wall time (slowest device, including communication)
	EnergyJ   float64   // total energy across devices (wasted energy included)
	CommTimeS float64   // communication time on the critical path
	PerDevice []float64 // per-device busy time (dead devices keep their partial total)

	// Resilience accounting (all zero on fault-free runs).
	Retries          int     // transient-fault retries performed
	Failovers        int     // permanent device losses survived
	SurvivingDevices int     // devices alive at the end of the run
	WastedTimeS      float64 // device time burned on work that was aborted or re-executed
	WastedEnergyJ    float64 // energy burned on that wasted work
	BackoffTimeS     float64 // cumulative retry backoff across devices
	CheckpointTimeS  float64 // checkpoint write/restore overhead on the critical path
}

// Efficiency returns the strong-scaling efficiency of this run against a
// single-device baseline time: t1 / (n · tn).
func (r Result) Efficiency(singleDeviceTimeS float64, n int) float64 {
	if r.TimeS <= 0 || n < 1 {
		return 0
	}
	return singleDeviceTimeS / (float64(n) * r.TimeS)
}

// RunCronos executes a Cronos simulation decomposed into z-slabs across the
// cluster: each device advances its slab, exchanging two-cell halos with its
// neighbours every substep, with a bulk-synchronous barrier per substep (the
// Celerity execution model for this stencil).
func (c *Cluster) RunCronos(nx, ny, nz, steps int) (Result, error) {
	n := len(c.queues)
	if nz < n {
		return Result{}, fmt.Errorf("cluster: cannot split %d z-planes across %d devices", nz, n)
	}
	if c.inj != nil {
		return c.runCronosResilient(nx, ny, nz, steps)
	}

	commPerSubstep := c.haloExchangeS(nx, ny)
	substeps := float64(3 * steps)

	var res Result
	res.PerDevice = make([]float64, n)
	res.SurvivingDevices = n
	var slowest float64
	slabs := evenSplit(nz, n)
	for i, q := range c.queues {
		w, err := cronos.NewWorkload(nx, ny, slabs[i], steps)
		if err != nil {
			return Result{}, err
		}
		t, e, err := w.RunOn(q)
		if err != nil {
			return Result{}, err
		}
		res.PerDevice[i] = t
		res.EnergyJ += e
		if t > slowest {
			slowest = t
		}
		c.obsv.Trace().Add("cluster.cronos.device", t,
			obs.L("device", q.Spec().Name))
	}
	if n > 1 {
		res.CommTimeS = substeps * commPerSubstep
	}
	res.TimeS = slowest + res.CommTimeS
	// Devices idle-waiting at the barrier still burn idle power for the
	// communication time.
	idleW := c.queues[0].Spec().IdleW
	res.EnergyJ += res.CommTimeS * idleW * float64(n)
	c.obsv.Trace().Add("cluster.cronos", res.TimeS,
		obs.L("devices", strconv.Itoa(n)), obs.L("steps", strconv.Itoa(steps)))
	return res, nil
}

// ScreenLiGen executes a virtual-screening campaign sharded across the
// cluster. Screening is embarrassingly parallel (the paper calls it out
// explicitly), so there is no communication beyond a final negligible
// gather.
func (c *Cluster) ScreenLiGen(in ligen.Input) (Result, error) {
	n := len(c.queues)
	if in.Ligands < n {
		return Result{}, fmt.Errorf("cluster: cannot shard %d ligands across %d devices", in.Ligands, n)
	}
	if c.inj != nil {
		return c.screenLiGenResilient(in)
	}
	var res Result
	res.PerDevice = make([]float64, n)
	res.SurvivingDevices = n
	var slowest float64
	shards := evenSplit(in.Ligands, n)
	for i, q := range c.queues {
		shard := in
		shard.Ligands = shards[i]
		w, err := ligen.NewWorkload(shard)
		if err != nil {
			return Result{}, err
		}
		t, e, err := w.RunOn(q)
		if err != nil {
			return Result{}, err
		}
		res.PerDevice[i] = t
		res.EnergyJ += e
		if t > slowest {
			slowest = t
		}
		c.obsv.Trace().Add("cluster.ligen.device", t,
			obs.L("device", q.Spec().Name))
	}
	res.TimeS = slowest
	c.obsv.Trace().Add("cluster.ligen", res.TimeS,
		obs.L("devices", strconv.Itoa(n)), obs.L("ligands", strconv.Itoa(in.Ligands)))
	return res, nil
}

// haloExchangeS is the time of one substep's halo exchange: Ghost planes of
// all variables, sent in both directions (interior devices have two
// neighbours).
func (c *Cluster) haloExchangeS(nx, ny int) float64 {
	haloBytes := float64(cronos.Ghost) * float64(nx) * float64(ny) * cronos.NVars * 8
	return 2 * (haloBytes/(c.net.BandwidthGBs*1e9) + c.net.LatencyS)
}

// haloProfile is exposed for white-box tests: the raw communication volume
// of one Cronos substep on this cluster for an nx×ny plane.
func (c *Cluster) haloProfile(nx, ny int) kernels.InstructionMix {
	words := float64(cronos.Ghost) * float64(nx) * float64(ny) * cronos.NVars * 2
	return kernels.InstructionMix{GlobalAcc: words}
}
