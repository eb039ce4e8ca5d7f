// Package dsenergy is the root of the domain-specific energy modeling
// library, a reproduction of Carpentieri et al., "Domain-Specific Energy
// Modeling for Drug Discovery and Magnetohydrodynamics Applications" (SC-W
// 2023). The package itself holds no code: the library lives in the
// packages under internal/, which every program of this module — the cmd/
// tools and the examples/ programs — imports directly.
//
// The library spans the paper's whole stack:
//
//   - a DVFS-capable GPU simulator standing in for the NVIDIA V100 and AMD
//     MI100 testbed (internal/gpusim);
//   - a portable energy-profiling and frequency-scaling layer in the role of
//     the SYnergy API (internal/synergy);
//   - the two applications: the Cronos finite-volume MHD solver and the
//     LiGen molecular docking engine, each usable both as a real CPU
//     implementation and as a GPU workload (internal/cronos, internal/ligen);
//   - a from-scratch regression library (linear, Lasso, SVR-RBF, random
//     forest, cross-validation, grid search) in the role of scikit-learn
//     (internal/ml);
//   - the general-purpose baseline model of Fan et al. trained on 106
//     micro-benchmarks (internal/gpmodel, internal/microbench);
//   - the paper's contribution: domain-specific energy/runtime models driven
//     by input characteristics (internal/core), with Pareto-front tooling
//     (internal/pareto) and model-driven frequency selection
//     (internal/tuner);
//   - the models spent online: a resilient multi-GPU cluster with seeded
//     fault injection (internal/cluster, internal/faults), a deadline-aware
//     scheduler (internal/sched) and a frequency-advisor service
//     (internal/serve);
//   - a harness regenerating every table and figure of the evaluation
//     (internal/experiments) — see also the testing.B benchmarks in
//     bench_test.go;
//   - a deterministic observability layer — metrics, simulated-time traces
//     and wall-clock profiles that never perturb a result (internal/obs).
//
// The smallest end-to-end use, as in examples/quickstart:
//
//	tb, _ := synergy.NewPlatform(42, gpusim.V100Spec(), gpusim.MI100Spec())
//	v100 := tb.Queues()[0]
//	w, _ := ligen.NewWorkload(ligen.Input{Ligands: 1024, Atoms: 63, Fragments: 8})
//	m, _ := synergy.MeasureAt(v100, w, 1297, 5)
//	fmt.Println(m.TimeS, m.EnergyJ)
package dsenergy
