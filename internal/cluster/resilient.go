package cluster

// Resilient execution: the runtime survives the faults internal/faults
// injects, the way the paper's production campaigns must survive real
// hardware (EXSCALATE screened ligands on thousands of accelerator nodes;
// Cronos runs for days on distributed clusters). The strategies are the
// standard HPC ones, made measurable:
//
//   - transient kernel faults are retried with capped exponential backoff;
//   - LiGen's embarrassingly parallel campaign is over-decomposed into more
//     shards than devices, and shards stranded on a dead device are requeued
//     to the survivors at the next round barrier;
//   - Cronos checkpoints every K steps; a device loss rolls the simulation
//     back to the last checkpoint, the z-slabs are re-decomposed over the
//     survivors and the lost steps are re-executed (graceful degradation to
//     n-1 devices);
//   - every recovery cost is accounted in the Result: retries, failovers,
//     backoff, checkpoint overhead and the wasted (aborted or re-executed)
//     time and energy — resilience itself becomes a time/energy trade-off in
//     the spirit of the paper.
//
// Determinism: each barrier fans the live devices out over parallel.Map /
// parallel.ForEach with one worker per device, but each device owns private
// noise and fault streams and results are aggregated in device-index order at
// every barrier, so identical seeds give byte-identical results regardless of
// scheduling.

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"dsenergy/internal/cronos"
	"dsenergy/internal/faults"
	"dsenergy/internal/ligen"
	"dsenergy/internal/obs"
	"dsenergy/internal/parallel"
	"dsenergy/internal/synergy"
)

// ResilienceConfig controls the recovery strategies of a fault-injected
// cluster. The zero value selects the defaults noted on each field.
type ResilienceConfig struct {
	// MaxRetries is the per-attempt transient retry budget (default 3).
	MaxRetries int
	// BackoffBaseS is the first retry's backoff delay in simulated seconds
	// (default 0.01); delays grow by BackoffFactor (default 2) per retry and
	// are capped at BackoffCapS (default 0.1). Backoff time counts into the
	// device's busy time and burns idle power.
	BackoffBaseS  float64
	BackoffFactor float64
	BackoffCapS   float64
	// ShardsPerDevice is the LiGen work-queue granularity: the campaign is
	// split into ShardsPerDevice shards per device (default 4), so a dead
	// device strands at most 1/ShardsPerDevice of its work per round.
	ShardsPerDevice int
	// CheckpointEverySteps is the Cronos checkpoint interval (default 8;
	// negative disables checkpointing, so a failover restarts from step 0).
	CheckpointEverySteps int
	// CheckpointBWGBs is the bandwidth the checkpoint state is written and
	// restored at (default 10 GB/s, a parallel-filesystem-class sink).
	CheckpointBWGBs float64
}

// DefaultResilienceConfig returns the documented defaults.
func DefaultResilienceConfig() ResilienceConfig {
	return ResilienceConfig{
		MaxRetries:           3,
		BackoffBaseS:         0.01,
		BackoffFactor:        2,
		BackoffCapS:          0.1,
		ShardsPerDevice:      4,
		CheckpointEverySteps: 8,
		CheckpointBWGBs:      10,
	}
}

// withDefaults fills zero fields with the documented defaults.
func (rc ResilienceConfig) withDefaults() ResilienceConfig {
	d := DefaultResilienceConfig()
	if rc.MaxRetries == 0 {
		rc.MaxRetries = d.MaxRetries
	}
	if rc.BackoffBaseS == 0 {
		rc.BackoffBaseS = d.BackoffBaseS
	}
	if rc.BackoffFactor == 0 {
		rc.BackoffFactor = d.BackoffFactor
	}
	if rc.BackoffCapS == 0 {
		rc.BackoffCapS = d.BackoffCapS
	}
	if rc.ShardsPerDevice == 0 {
		rc.ShardsPerDevice = d.ShardsPerDevice
	}
	if rc.CheckpointEverySteps == 0 {
		rc.CheckpointEverySteps = d.CheckpointEverySteps
	}
	if rc.CheckpointBWGBs == 0 {
		rc.CheckpointBWGBs = d.CheckpointBWGBs
	}
	return rc
}

// SetFaultPlan attaches a seeded fault plan and resilience configuration to
// the cluster. An empty plan detaches injection entirely: the cluster then
// follows the exact fault-free execution path, so results are bit-identical
// to a cluster that never saw a plan (the determinism contract callers rely
// on). Attaching a plan mid-run is not supported; call it before RunCronos /
// ScreenLiGen.
func (c *Cluster) SetFaultPlan(plan faults.Plan, rc ResilienceConfig) error {
	if err := plan.Validate(len(c.queues)); err != nil {
		return err
	}
	c.rc = rc.withDefaults()
	if plan.Empty() {
		c.inj = nil
		for _, q := range c.queues {
			q.SetFaultInjector(nil)
		}
		return nil
	}
	inj, err := faults.NewInjector(plan, len(c.queues))
	if err != nil {
		return err
	}
	c.inj = inj
	for i, q := range c.queues {
		q.SetFaultInjector(inj.Device(i))
	}
	c.dead = make([]bool, len(c.queues))
	return nil
}

// alive returns the indices of devices not yet permanently failed, ascending.
func (c *Cluster) alive() []int {
	var out []int
	for i := range c.queues {
		if !c.dead[i] {
			out = append(out, i)
		}
	}
	return out
}

// attemptOut is the outcome of running one workload on one device with the
// transient-retry loop applied.
type attemptOut struct {
	goodTimeS     float64 // cost of the successful attempt (zero if none)
	goodEnergyJ   float64
	wasteTimeS    float64 // cost of failed attempts (partial aborts included)
	wasteEnergyJ  float64
	backoffTimeS  float64
	retries       int
	err           error // non-nil when the attempt gave up
	permanentFail bool  // err is a permanent device loss
}

// busyTimeS is the device wall time the attempt occupied.
func (o attemptOut) busyTimeS() float64 {
	return o.goodTimeS + o.wasteTimeS + o.backoffTimeS
}

// attempt runs w on device di, retrying transient faults with capped
// exponential backoff. Failed attempts are charged from the queue's event
// log, so partially executed kernels are accounted exactly once.
func (c *Cluster) attempt(di int, w synergy.Workload) attemptOut {
	q := c.queues[di]
	var o attemptOut
	for try := 0; ; try++ {
		first := q.EventCount()
		t, e, err := w.RunOn(q)
		if err == nil {
			o.goodTimeS, o.goodEnergyJ = t, e
			return o
		}
		for _, ev := range q.AppendEventsFrom(nil, first) {
			o.wasteTimeS += ev.TimeS
			o.wasteEnergyJ += ev.EnergyJ
		}
		if faults.IsPermanent(err) {
			o.err = err
			o.permanentFail = true
			return o
		}
		if !faults.IsTransient(err) || try >= c.rc.MaxRetries {
			o.err = err
			return o
		}
		o.retries++
		delayS := c.rc.BackoffBaseS * math.Pow(c.rc.BackoffFactor, float64(try))
		if delayS > c.rc.BackoffCapS {
			delayS = c.rc.BackoffCapS
		}
		o.backoffTimeS += delayS
	}
}

// evenSplit splits total units (z-planes, ligands) into parts sizes that
// differ by at most one, the larger ones first.
func evenSplit(total, parts int) []int {
	out := make([]int, parts)
	for i := range out {
		out[i] = total / parts
		if i < total%parts {
			out[i]++
		}
	}
	return out
}

// runCronosResilient advances the simulation step by step with a
// bulk-synchronous barrier per step, checkpointing every K steps. A device
// loss rolls back to the last checkpoint, re-decomposes the slabs over the
// survivors and re-executes the lost steps; the rolled-back work is counted
// as wasted.
func (c *Cluster) runCronosResilient(nx, ny, nz, steps int) (Result, error) {
	rc := c.rc
	aliveIdx := c.alive()
	if len(aliveIdx) == 0 {
		return Result{}, fmt.Errorf("cluster: %w", ErrNoSurvivingDevices)
	}

	var res Result
	res.PerDevice = make([]float64, len(c.queues))
	idleW := c.queues[0].Spec().IdleW

	// Checkpoint write/restore time: the full conserved state streamed to
	// the checkpoint sink.
	stateBytes := float64(nx) * float64(ny) * float64(nz) * cronos.NVars * 8
	ckptWriteS := 0.0
	if rc.CheckpointEverySteps > 0 {
		ckptWriteS = stateBytes / (rc.CheckpointBWGBs * 1e9)
	}

	// Halo-exchange cost per step at the current device count.
	commPerStepS := func(n int) float64 {
		if n < 2 {
			return 0
		}
		return 3 * c.haloExchangeS(nx, ny)
	}

	lastCkpt := 0
	// Wall time and energy of completed steps since the last checkpoint —
	// the work a failover discards.
	var sinceCkptTimeS, sinceCkptEnergyJ float64

	step := 1
	for step <= steps {
		n := len(aliveIdx)
		if nz < n {
			return Result{}, fmt.Errorf("cluster: cannot split %d z-planes across %d devices", nz, n)
		}
		slabs := evenSplit(nz, n)
		ws := make([]cronos.Workload, n)
		for k := range aliveIdx {
			w, err := cronos.NewWorkload(nx, ny, slabs[k], 1)
			if err != nil {
				return Result{}, err
			}
			ws[k] = w
		}
		// attempt reports failures in its result, so Map itself cannot fail.
		outs, _ := parallel.Map(context.Background(), n, n, func(_ context.Context, k int) (attemptOut, error) {
			return c.attempt(aliveIdx[k], ws[k]), nil
		})

		// Aggregate in device-index order (aliveIdx is ascending).
		var stepSlowS, stepGoodEnergyJ float64
		var newlyDead []int
		for k, o := range outs {
			di := aliveIdx[k]
			res.PerDevice[di] += o.busyTimeS()
			res.EnergyJ += o.goodEnergyJ + o.wasteEnergyJ + o.backoffTimeS*idleW
			res.Retries += o.retries
			c.om.retries.Add(uint64(o.retries))
			res.WastedTimeS += o.wasteTimeS
			res.WastedEnergyJ += o.wasteEnergyJ
			res.BackoffTimeS += o.backoffTimeS
			stepGoodEnergyJ += o.goodEnergyJ
			if o.busyTimeS() > stepSlowS {
				stepSlowS = o.busyTimeS()
			}
			if o.permanentFail {
				newlyDead = append(newlyDead, di)
			} else if o.err != nil {
				return Result{}, fmt.Errorf("cluster: step %d: %w", step, o.err)
			}
		}

		if len(newlyDead) > 0 {
			// Failover: the step is lost, and so is everything since the
			// last checkpoint — it will be re-executed by the survivors.
			for _, di := range newlyDead {
				c.dead[di] = true
				c.obsv.Trace().Add("cluster.failover", 0,
					obs.L("device", c.queues[di].Spec().Name),
					obs.L("step", strconv.Itoa(step)))
			}
			res.Failovers += len(newlyDead)
			c.om.failovers.Add(uint64(len(newlyDead)))
			aliveIdx = c.alive()
			if len(aliveIdx) == 0 {
				return Result{}, fmt.Errorf("cluster: all %d devices failed at step %d: %w", len(c.queues), step, ErrNoSurvivingDevices)
			}
			res.TimeS += stepSlowS
			res.WastedTimeS += sinceCkptTimeS + stepSlowS
			res.WastedEnergyJ += sinceCkptEnergyJ + stepGoodEnergyJ
			sinceCkptTimeS, sinceCkptEnergyJ = 0, 0
			if ckptWriteS > 0 {
				// Restoring the checkpoint onto the survivors costs one read
				// of the state.
				res.TimeS += ckptWriteS
				res.CheckpointTimeS += ckptWriteS
				res.EnergyJ += ckptWriteS * idleW * float64(len(aliveIdx))
				c.obsv.Trace().Add("cluster.restore", ckptWriteS,
					obs.L("step", strconv.Itoa(lastCkpt)))
			}
			step = lastCkpt + 1
			continue
		}

		commS := commPerStepS(n)
		stepWallS := stepSlowS + commS
		res.CommTimeS += commS
		// Devices idle-waiting at the barrier burn idle power for the
		// communication time, as in the fault-free path.
		res.EnergyJ += commS * idleW * float64(n)
		if rc.CheckpointEverySteps > 0 && step%rc.CheckpointEverySteps == 0 {
			stepWallS += ckptWriteS
			res.CheckpointTimeS += ckptWriteS
			res.EnergyJ += ckptWriteS * idleW * float64(n)
			lastCkpt = step
			sinceCkptTimeS, sinceCkptEnergyJ = 0, 0
			c.om.checkpoints.Inc()
			c.obsv.Trace().Add("cluster.checkpoint", ckptWriteS,
				obs.L("step", strconv.Itoa(step)))
		} else {
			sinceCkptTimeS += stepSlowS + commS
			sinceCkptEnergyJ += stepGoodEnergyJ + commS*idleW*float64(n)
		}
		res.TimeS += stepWallS
		c.obsv.Trace().Add("cluster.cronos.step", stepWallS,
			obs.L("step", strconv.Itoa(step)),
			obs.L("devices", strconv.Itoa(n)))
		step++
	}
	res.SurvivingDevices = len(aliveIdx)
	return res, nil
}

// screenLiGenResilient over-decomposes the campaign into ShardsPerDevice
// shards per device and executes rounds of shard batches with a barrier per
// round; shards stranded on a device that died mid-round are requeued to the
// survivors in the next round. Screening shards are independent, so requeue
// needs no rollback — only the dead device's unfinished work moves.
func (c *Cluster) screenLiGenResilient(in ligen.Input) (Result, error) {
	rc := c.rc
	aliveIdx := c.alive()
	if len(aliveIdx) == 0 {
		return Result{}, fmt.Errorf("cluster: %w", ErrNoSurvivingDevices)
	}
	if in.Ligands < len(aliveIdx) {
		return Result{}, fmt.Errorf("cluster: cannot shard %d ligands across %d devices", in.Ligands, len(aliveIdx))
	}

	nShards := len(aliveIdx) * rc.ShardsPerDevice
	if nShards > in.Ligands {
		nShards = in.Ligands
	}
	shardLigands := evenSplit(in.Ligands, nShards)
	pending := make([]int, nShards)
	for i := range pending {
		pending[i] = i
	}

	var res Result
	res.PerDevice = make([]float64, len(c.queues))
	idleW := c.queues[0].Spec().IdleW

	type devOut struct {
		out      attemptOut // accumulated over the device's shards this round
		stranded []int      // shards to requeue (device died or never started them)
		fatal    error      // non-recoverable, non-permanent failure
		died     bool
	}

	for round := 0; len(pending) > 0; round++ {
		if len(aliveIdx) == 0 {
			return Result{}, fmt.Errorf("cluster: all %d devices failed with %d shards unscreened: %w", len(c.queues), len(pending), ErrNoSurvivingDevices)
		}
		// Deterministic round-robin assignment of pending shards (ascending)
		// over the surviving devices (ascending).
		byDev := make([][]int, len(aliveIdx))
		for j, si := range pending {
			k := j % len(aliveIdx)
			byDev[k] = append(byDev[k], si)
		}
		outs := make([]devOut, len(aliveIdx))
		// Each device records its failures in its own slot, so ForEach
		// itself cannot fail.
		_ = parallel.ForEach(context.Background(), len(aliveIdx), len(aliveIdx), func(_ context.Context, k int) error {
			di, shards, d := aliveIdx[k], byDev[k], &outs[k]
			for si, shard := range shards {
				sub := in
				sub.Ligands = shardLigands[shard]
				w, err := ligen.NewWorkload(sub)
				if err != nil {
					d.fatal = err
					return nil
				}
				o := c.attempt(di, w)
				d.out.goodTimeS += o.goodTimeS
				d.out.goodEnergyJ += o.goodEnergyJ
				d.out.wasteTimeS += o.wasteTimeS
				d.out.wasteEnergyJ += o.wasteEnergyJ
				d.out.backoffTimeS += o.backoffTimeS
				d.out.retries += o.retries
				if o.err == nil {
					continue
				}
				if o.permanentFail {
					// The in-flight shard and everything not yet started
					// is stranded; the survivors pick it up next round.
					d.died = true
					d.stranded = append(d.stranded, shards[si:]...)
				} else {
					d.fatal = o.err
				}
				return nil
			}
			return nil
		})

		// Aggregate in device-index order.
		var roundSlowS float64
		var requeue []int
		for k, d := range outs {
			di := aliveIdx[k]
			if d.fatal != nil {
				return Result{}, fmt.Errorf("cluster: device %d: %w", di, d.fatal)
			}
			busy := d.out.busyTimeS()
			res.PerDevice[di] += busy
			res.EnergyJ += d.out.goodEnergyJ + d.out.wasteEnergyJ + d.out.backoffTimeS*idleW
			res.Retries += d.out.retries
			c.om.retries.Add(uint64(d.out.retries))
			res.WastedTimeS += d.out.wasteTimeS
			res.WastedEnergyJ += d.out.wasteEnergyJ
			res.BackoffTimeS += d.out.backoffTimeS
			if busy > roundSlowS {
				roundSlowS = busy
			}
			if d.died {
				c.dead[di] = true
				res.Failovers++
				c.om.failovers.Inc()
				c.obsv.Trace().Add("cluster.failover", 0,
					obs.L("device", c.queues[di].Spec().Name),
					obs.L("round", strconv.Itoa(round)))
			}
			requeue = append(requeue, d.stranded...)
		}
		res.TimeS += roundSlowS
		c.obsv.Trace().Add("cluster.ligen.round", roundSlowS,
			obs.L("round", strconv.Itoa(round)),
			obs.L("devices", strconv.Itoa(len(aliveIdx))),
			obs.L("shards", strconv.Itoa(len(pending))))
		c.om.requeued.Add(uint64(len(requeue)))
		pending = requeue
		aliveIdx = c.alive()
	}
	res.SurvivingDevices = len(aliveIdx)
	return res, nil
}
