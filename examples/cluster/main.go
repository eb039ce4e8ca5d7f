// Cluster example: run the EXSCALATE-style scenario — a virtual-screening
// campaign sharded across a multi-GPU cluster, and a distributed Cronos
// simulation with halo exchange — and show how cluster-wide frequency tuning
// changes the energy bill.
package main

import (
	"fmt"
	"log"

	"dsenergy/internal/cluster"
	"dsenergy/internal/faults"
	"dsenergy/internal/gpusim"
	"dsenergy/internal/ligen"
)

func main() {
	const devices = 8
	cl, err := cluster.New(42, gpusim.V100Spec(), devices, cluster.DefaultInterconnect())
	if err != nil {
		log.Fatal(err)
	}
	single, err := cluster.New(42, gpusim.V100Spec(), 1, cluster.DefaultInterconnect())
	if err != nil {
		log.Fatal(err)
	}

	// --- LiGen campaign: embarrassingly parallel ---
	in := ligen.Input{Ligands: 65536, Atoms: 63, Fragments: 8}
	r1, err := single.ScreenLiGen(in)
	if err != nil {
		log.Fatal(err)
	}
	rn, err := cl.ScreenLiGen(in)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("LiGen %d ligands: 1 device %.2fs, %d devices %.2fs (efficiency %.0f%%)\n",
		in.Ligands, r1.TimeS, devices, rn.TimeS, rn.Efficiency(r1.TimeS, devices)*100)

	// --- Cronos simulation: z-slab decomposition with halo exchange ---
	c1, err := single.RunCronos(160, 64, 64, 50)
	if err != nil {
		log.Fatal(err)
	}
	cn, err := cl.RunCronos(160, 64, 64, 50)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Cronos 160x64x64: 1 device %.3fs, %d devices %.3fs (efficiency %.0f%%, comm %.0f%%)\n",
		c1.TimeS, devices, cn.TimeS, cn.Efficiency(c1.TimeS, devices)*100,
		cn.CommTimeS/cn.TimeS*100)

	// --- Cluster-wide frequency tuning ---
	// The stencil is memory-bound: down-clock the whole cluster.
	spec := cl.Queues()[0].Spec()
	low := spec.NearestFreqMHz(spec.BaselineFreqMHz() * 2 / 3)
	if err := cl.SetCoreFreqMHz(low); err != nil {
		log.Fatal(err)
	}
	cnLow, err := cl.RunCronos(160, 64, 64, 50)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cluster at %d MHz: %.3fs (%+.1f%% time), %.0fJ vs %.0fJ (%.0f%% energy saved)\n",
		low, cnLow.TimeS, (cnLow.TimeS/cn.TimeS-1)*100,
		cnLow.EnergyJ, cn.EnergyJ, (1-cnLow.EnergyJ/cn.EnergyJ)*100)

	// --- Fault injection: the same campaign under failure conditions ---
	// One device dies mid-campaign, another spends a stretch thermally
	// throttled, and 1% of kernels fault transiently. The cluster retries,
	// requeues the dead device's shards, checkpoints and restarts Cronos —
	// and reports what surviving cost.
	faulty, err := cluster.New(42, gpusim.V100Spec(), devices, cluster.DefaultInterconnect())
	if err != nil {
		log.Fatal(err)
	}
	plan := faults.Plan{
		Seed:          7,
		TransientProb: 0.01,
		Failures:      []faults.DeviceFailure{{Device: 3, AfterSubmits: 8}},
		Throttles:     []faults.Throttle{{Device: 1, FromSubmit: 5, ToSubmit: 30, CapMHz: 1005}},
	}
	if err := faulty.SetFaultPlan(plan, cluster.DefaultResilienceConfig()); err != nil {
		log.Fatal(err)
	}
	rf, err := faulty.ScreenLiGen(in)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("LiGen under faults: %.2fs (%+.1f%% vs clean), %d retries, %d failover, %d/%d devices, wasted %.0fJ\n",
		rf.TimeS, (rf.TimeS/rn.TimeS-1)*100, rf.Retries, rf.Failovers,
		rf.SurvivingDevices, devices, rf.WastedEnergyJ)
	// The dead device stays dead: the follow-up Cronos run starts degraded
	// on the 7 survivors and still checkpoints against further faults.
	cf, err := faulty.RunCronos(160, 64, 64, 50)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Cronos under faults: %.3fs (%+.1f%% vs clean) on %d devices, checkpoint overhead %.3fs\n",
		cf.TimeS, (cf.TimeS/cn.TimeS-1)*100, cf.SurvivingDevices, cf.CheckpointTimeS)
}
