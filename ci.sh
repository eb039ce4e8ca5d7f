#!/bin/sh
# ci.sh — the repository's full correctness gate. Every check must pass:
#
#   1. gofmt        all source formatted (testdata fixtures included)
#   2. go vet       stdlib static analysis
#   3. go build     everything compiles
#   4. go test -race  full test suite under the race detector, plus
#                   bounded fuzzes of the curve kernel (FuzzPredictSweep),
#                   the tree presort (FuzzPresort), the serve request key
#                   (FuzzCacheKey) and the gpusim analytic-cache key
#                   (FuzzAnalyticCache), the model upload decode
#                   (FuzzLoadModel), the fault-plan validation
#                   (FuzzPlanValidate), the Pareto front against its
#                   sort.Slice reference (FuzzFront), the benchmark
#                   module's own vet and tests (perfbench/), the solver's
#                   allocation guard at GOMAXPROCS 1, 2, 4 and 8, and the
#                   worker gang's tests ten times under the race detector
#   5. results      reproduce -quick regenerated and diffed against the
#                   checked-in results/quick snapshot (drift guard); one
#                   default-fidelity reproduce run diffed against the 22
#                   checked-in results/*.txt; schedule at its default config
#                   diffed against results/schedule.txt; the examples' stdout
#                   diffed against examples/*/output.txt; serve -quick
#                   diffed against cmd/serve/testdata/quick.txt; the serve
#                   report and its -metrics and -trace exports diffed
#                   between -j 1 and -j 0
#   6. dsalint      the domain-aware suite (internal/analysis): syntactic
#                   passes, the interprocedural determinism contracts
#                   (forkabsorb, wallclock, detloop, sharedwrite, floatacc)
#                   and the unreachable-code report over the call graph,
#                   in which an interface call reaches only methods of types
#                   non-test code names, and a call through a function value
#                   only functions and literals whose address non-test code
#                   takes; self-lint must report zero unsuppressed findings,
#                   and a per-package run must pass too
#
# Run from the repository root: ./ci.sh
# Artifacts (the dsalint JSON report and the call-graph dump) land in
# ci-artifacts/.
set -eu

cd "$(dirname "$0")"

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> go test -race ./..."
go test -race ./...

# The resilience layer's retry/requeue concurrency, the deterministic
# parallel engine, the observability registry (counters bumped from worker
# goroutines, trace fork/absorb), the forest trainer's pooled workspaces
# (shared column copy read by every tree goroutine) and the deadline-aware
# scheduler (serial core, but its campaign fans out over forked observers),
# the MHD solver's slab fan-out (tiled sweeps writing disjoint slabs of
# shared SoA state), the frequency-advisor service (RCU hot-reload registry
# read concurrently by sharded event loops), the gpusim analytic cache (RCU
# snapshots compiled under a mutex, read lock-free by forked devices) and the
# synergy sweep engine that hammers it from parallel workers are where a
# scheduling race would hide: run their packages twice under the race
# detector so goroutine interleavings get a second roll of the dice.
echo "==> go test -race -count=2 ./internal/faults ./internal/cluster ./internal/parallel ./internal/obs ./internal/ml ./internal/sched ./internal/cronos ./internal/serve ./internal/gpusim ./internal/synergy"
go test -race -count=2 ./internal/faults ./internal/cluster ./internal/parallel ./internal/obs ./internal/ml ./internal/sched ./internal/cronos ./internal/serve ./internal/gpusim ./internal/synergy

# Curve-kernel differential fuzz: PredictSweep walks each tree once for a
# whole clock menu and must equal per-row Predict bit for bit on fitted,
# hand-built and persisted models, whatever the features and the sweep. The
# checked-in corpus runs with every go test; this adds a bounded search.
echo "==> fuzz FuzzPredictSweep (10s)"
go test -run '^$' -fuzz '^FuzzPredictSweep$' -fuzztime 10s ./internal/ml

# Presort differential fuzz: Forest.Fit ranks each column once and every
# tree orders its bootstrap sample with a counting sort of those ranks; the
# order, and every fitted tree and forest, must equal what the per-tree
# comparison argsort gives, for tie runs, ±0, ±Inf and subnormals. The
# checked-in corpus runs with every go test; this adds a bounded search.
echo "==> fuzz FuzzPresort (10s)"
go test -run '^$' -fuzz '^FuzzPresort$' -fuzztime 10s ./internal/ml

# Request-key differential fuzz: the serve LRU and single-flight map key a
# request by its bits (appendCacheKey); two requests must share a key
# exactly when the old formatted string key would have matched them. The
# checked-in corpus runs with every go test; this adds a bounded search.
echo "==> fuzz FuzzCacheKey (10s)"
go test -run '^$' -fuzz '^FuzzCacheKey$' -fuzztime 10s ./internal/serve

# Analytic-cache key differential fuzz: the gpusim cache keys a kernel
# profile by the bits of its 14 numeric fields; profile pairs that differ in
# one field or in a random subset (±0, subnormals, huge values, NaN payloads)
# must get from the cached device exactly what a cacheless one evaluates,
# with the power cap on and off, at on-menu and off-menu clocks. The
# checked-in corpus runs with every go test; this adds a bounded search.
echo "==> fuzz FuzzAnalyticCache (10s)"
go test -run '^$' -fuzz '^FuzzAnalyticCache$' -fuzztime 10s ./internal/gpusim

# Model-upload fuzz: core.LoadModel is the decode behind every model the
# serve registry publishes. No input may panic it, and every model it
# accepts must answer PredictCurvesBatch with curves or an error. The
# checked-in corpus runs with every go test; this adds a bounded search.
echo "==> fuzz FuzzLoadModel (10s)"
go test -run '^$' -fuzz '^FuzzLoadModel$' -fuzztime 10s ./internal/core

# Fault-plan fuzz: faults.Plan.Validate is the trust boundary of every
# fault campaign. No plan may panic it, and every plan it accepts must hold
# its probabilities in [0, 1] (NaN included) and drive an injector through
# each device's submissions and clock sets. The checked-in corpus runs with
# every go test; this adds a bounded search.
echo "==> fuzz FuzzPlanValidate (10s)"
go test -run '^$' -fuzz '^FuzzPlanValidate$' -fuzztime 10s ./internal/faults

# Pareto-front differential fuzz: pareto.Front sorts without reflection and
# the advisor computes the front in place; both must equal the sort.Slice
# reference bit for bit, NaN payloads, ±Inf, ±0, subnormals, ties and
# duplicate clocks included, and on NaN-free input the front must be
# monotone and idempotent. The checked-in corpus runs with every go test;
# this adds a bounded search.
echo "==> fuzz FuzzFront (10s)"
go test -run '^$' -fuzz '^FuzzFront$' -fuzztime 10s ./internal/pareto

# The benchmark is a Go module of its own, so the root go vet and go test
# never enter it: vet it and run its arithmetic tests here.
echo "==> perfbench vet and tests"
(cd perfbench && go vet ./... && go test ./...)

# Allocation guard at several GOMAXPROCS: TestStepAllocationGuard's parallel
# case runs at GOMAXPROCS workers, so a runner with one CPU checks only the
# serial fan-out. Pin the per-Step bound at 1, 2, 4 and 8 on any runner.
echo "==> cronos allocation guard at -cpu 1,2,4,8"
go test -count=1 -cpu 1,2,4,8 -run '^TestStepAllocationGuard$' ./internal/cronos

# The solver's worker gang hands every dispatch to long-lived goroutines and
# stops them on Close: give the hand-offs ten rolls under the race detector.
echo "==> parallel gang race smoke (-count=10)"
go test -race -count=10 -run Gang ./internal/parallel

# Tiled-solver determinism smoke: the pencil-tiled stencil must produce the
# frozen golden state hashes and be byte-invariant to the tile width and the
# worker count — the Cronos equivalent of the engine's Jobs-invariance
# contract.
echo "==> cronos tiled determinism smoke"
go test -race -run 'TestTileWidthInvariance|TestGolden|TestWorkerCountDoesNotChangeResult' -count=2 ./internal/cronos

# Analytic-cache transparency smoke: the compiled-profile cache is a pure
# evaluation shortcut, so sweeping with it attached and detached must agree
# on every observable byte (measurements, event logs, energy counters),
# on one worker and on a pool; the golden suite pins the compiled
# evaluator bit-for-bit against the pre-rewrite engine's recorded outputs.
echo "==> gpusim cache-on vs cache-off byte-identity smoke"
go test -race -run 'TestSweepCacheOnOffByteIdentical' -count=2 ./internal/synergy
go test -run 'TestGoldenAnalytic' -count=1 ./internal/gpusim

# The analysis engine itself must be deterministic and race-free: its tests
# build call graphs and run every pass concurrently-adjacent code, so run the
# package twice under the race detector like the other concurrency-bearing
# packages.
echo "==> go test -race -count=2 ./internal/analysis"
go test -race -count=2 ./internal/analysis

# Parallel-vs-serial equivalence smoke: regenerate a figure and the cluster
# resilience study with Jobs=1 and Jobs=0 under the race detector and require
# byte-identical results (the engine's core contract, end to end).
echo "==> parallel equivalence smoke (Jobs=0 vs Jobs=1)"
go test -race -run 'TestJobsInvariance' ./internal/experiments

# Observability smoke: enabling -metrics/-trace must not change one result
# byte, and the exports themselves must be identical for every -j value.
echo "==> observability smoke (reproduce -quick with vs without -metrics/-trace)"
obsdir=$(mktemp -d)
trap 'rm -rf "$obsdir"' EXIT
go build -o "$obsdir/reproduce" ./cmd/reproduce
"$obsdir/reproduce" -quick -out "$obsdir/plain" >/dev/null
"$obsdir/reproduce" -quick -out "$obsdir/observed" -j 1 \
    -metrics "$obsdir/m1.json" -trace "$obsdir/t1.txt" >/dev/null
"$obsdir/reproduce" -quick -out "$obsdir/observed2" -j 0 \
    -metrics "$obsdir/m2.json" -trace "$obsdir/t2.txt" >/dev/null
diff -r "$obsdir/plain" "$obsdir/observed"
diff -r "$obsdir/plain" "$obsdir/observed2"
diff "$obsdir/m1.json" "$obsdir/m2.json"
diff "$obsdir/t1.txt" "$obsdir/t2.txt"

# Results drift guard: the checked-in results/quick snapshot must match what
# cmd/reproduce produces at HEAD, so stale committed numbers cannot survive a
# code change that moves them. The observability smoke's plain run is that
# output at the default flags, so it is diffed here instead of a fourth run.
echo "==> results drift guard (reproduce -quick vs results/quick)"
diff -r results/quick "$obsdir/plain"

# Default-fidelity drift guard: results/quick holds only the -quick run, so
# the 22 default-fidelity files under results/ (regressors.txt, fed by every
# SVR and forest fit, among them) are checked by one default reproduce run,
# about 70 s on a 2-vCPU host.
echo "==> results drift guard (reproduce vs results/*.txt)"
"$obsdir/reproduce" -out "$obsdir/full" >/dev/null
diff -r -x quick results "$obsdir/full"

# Scheduler -j invariance smoke: the scheduling campaign must emit
# byte-identical reports whether its six cells run serially or fan out.
echo "==> schedule -j invariance smoke (-j 1 vs -j 0)"
go build -o "$obsdir/schedule" ./cmd/schedule
"$obsdir/schedule" -quick -j 1 > "$obsdir/sched1.txt"
"$obsdir/schedule" -quick -j 0 > "$obsdir/schedN.txt"
diff "$obsdir/sched1.txt" "$obsdir/schedN.txt"

# Schedule report drift guard: results/quick holds only the -quick campaign,
# so the full-scale cells (the fault storm included) are checked here:
# cmd/schedule at its default config (under a second) must match its
# checked-in report.
echo "==> schedule report drift guard (schedule vs results/schedule.txt)"
"$obsdir/schedule" > "$obsdir/schedule.txt"
diff results/schedule.txt "$obsdir/schedule.txt"

# Serving -j invariance smoke: the four advisor shards must emit
# byte-identical SLO reports, and byte-identical -metrics and -trace
# exports, whether they run serially or fan out, even with a hot-reload and
# a rejected corrupt upload mid-load.
echo "==> serve -j invariance smoke (-j 1 vs -j 0, report and exports)"
go build -o "$obsdir/serve" ./cmd/serve
"$obsdir/serve" -quick -requests 20000 -j 1 \
    -metrics "$obsdir/serve-m1.json" -trace "$obsdir/serve-t1.txt" > "$obsdir/serve1.txt"
"$obsdir/serve" -quick -requests 20000 -j 0 \
    -metrics "$obsdir/serve-mN.json" -trace "$obsdir/serve-tN.txt" > "$obsdir/serveN.txt"
diff "$obsdir/serve1.txt" "$obsdir/serveN.txt"
diff "$obsdir/serve-m1.json" "$obsdir/serve-mN.json"
diff "$obsdir/serve-t1.txt" "$obsdir/serve-tN.txt"

# Serve report drift guard: the full 2M-request quick campaign must match
# its checked-in report. A request key that merged or split cache entries
# would move the hit, coalesce and batch counts here.
echo "==> serve report drift guard (serve -quick vs cmd/serve/testdata/quick.txt)"
"$obsdir/serve" -quick > "$obsdir/serve-quick.txt"
diff cmd/serve/testdata/quick.txt "$obsdir/serve-quick.txt"

# Example drift guard: the examples are the only programs that run the CPU
# MHD solver, the user-law scalar solver and the docking engine end to end,
# so each one's stdout must match its checked-in examples/<name>/output.txt.
echo "==> example drift guard (examples/* vs examples/*/output.txt)"
for dir in examples/*/; do
    ex=$(basename "$dir")
    go build -o "$obsdir/example-$ex" "./examples/$ex"
    "$obsdir/example-$ex" > "$obsdir/example-$ex.txt"
    diff "examples/$ex/output.txt" "$obsdir/example-$ex.txt"
done

# Self-lint: the full domain-aware suite over the whole module, the
# unreachable pass included: every function must be reached by some program
# (cmd/*, examples/*, perfbench), so dead code cannot come back. The JSON
# report is archived for inspection; the run is the hard gate and must
# report zero findings that are not suppressed in source (//dsalint:ignore).
echo "==> dsalint ./... (self-lint, JSON report archived)"
mkdir -p ci-artifacts
go run ./cmd/dsalint -json ./... > ci-artifacts/dsalint.json || {
    echo "dsalint: unsuppressed findings (see ci-artifacts/dsalint.json)" >&2
    exit 1
}

# Call-graph dump: the graph the unreachable pass walks, one line per edge,
# byte-stable across runs and load orders (TestWriteCallsDeterministic), so
# the copies archived at two commits can be diffed.
echo "==> dsalint -calls ./... (call graph archived)"
go run ./cmd/dsalint -calls ./... > ci-artifacts/calls.txt

# Per-package lint: README documents running dsalint on single packages. Such
# a run cannot see the programs, so the unreachable pass must stay silent.
echo "==> dsalint ./internal/ml ./internal/serve (subset run)"
go run ./cmd/dsalint ./internal/ml ./internal/serve

echo "CI gate passed."
