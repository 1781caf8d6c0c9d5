#!/usr/bin/env bash
# Pinned bench invocation shared by CI's bench-regression job and by
# developers refreshing the committed baselines under bench/baselines/:
#
#   ./tools/bench_suite.sh [build-dir] [out-dir]
#
# Every BENCH_*.json the suite emits lands in out-dir;
# tools/check_bench_regression.py compares them against the baselines.
# Sizes are pinned small: the suite tracks the *relative* perf trajectory
# of the repo, not production scale (perf_micro carries its own fixed
# 3000-AS fixture).
set -euo pipefail

BUILD="${1:-build}"
OUT="${2:-bench-out}"
mkdir -p "$OUT"
export PANAGREE_BENCH_JSON_DIR="$OUT"
export PANAGREE_ASES=800
export PANAGREE_SOURCES=60
export PANAGREE_THREADS=2
export PANAGREE_SCENARIOS=24

# Compile the suite topology once; the plain-main benches then mmap the
# snapshot (PANAGREE_SNAPSHOT) instead of re-running the generator + embed
# per process. The snapshot freezes the same seed/size the generator would
# use, so results are unchanged - the benches' own BENCH json records the
# load time and peak RSS per run.
"$BUILD/panagree-compile" "$OUT/suite.pansnap"
export PANAGREE_SNAPSHOT="$OUT/suite.pansnap"

"$BUILD/bench_ext_networkwide_adoption"
"$BUILD/bench_tab_agreement_optimization"
# perf_micro: the CSR / sweep / optimizer trajectory benches. The
# heavyweight *_FullRecompute and *_Exhaustive ablation baselines are
# excluded on purpose - they exist to measure one-off speedup factors,
# not to be tracked per commit. MapSources gates the parallel driver's
# own claim overhead on cheap heavy-tailed items. The RoleFilter pair IS
# tracked including its Scalar baseline: both sides are cheap, and
# gating both keeps the SIMD speedup ratio visible in the committed
# JSON, not just asserted once. The Obs pair gates the per-record
# overhead of the metrics layer itself
# (counter = one sharded relaxed add, histogram = two) so accidental
# fattening of the record path is caught like any other regression -
# including the slow-query ring's worst-case eviction scan
# (Obs_SlowlogRecord) and the whole per-request stage-clock +
# observation cost on the cache-served fast path through the 1-shard
# router's handle_line (Serve_StageClock). QueryEngine_CachedSource
# gates the bare shard's cache read under it. The sharded-serving pair
# gates the 4-shard what-if fan-out + fold (Serve_ShardedWhatIf - its
# utility_sum must keep matching the 1-shard router's
# QueryEngine_WhatIfBatched, the byte-identity fingerprint) and the
# mmap-only cold start off the primed-baseline section
# (SnapshotLoad_PrimedBaseline). ShardRouter_Rebase gates committing one
# step to a serving fleet, which must re-score only the step's
# invalidation ball, never every source.
# Default --benchmark_min_time stays: the rotating-source micro benches
# need enough iterations to average the heavy-tailed per-source costs,
# or run-to-run noise defeats the 30% regression gate.
"$BUILD/bench_perf_micro" \
  --benchmark_filter='BM_(RoleLookup|Length3Enumeration|CompileTopology|ScenarioSweep_Incremental|Optimizer_Greedy|SnapshotLoad_Mmap|SnapshotLoad_PrimedBaseline|QueryEngine_CachedSource|MapSources|RoleFilter|Obs|Serve_StageClock|Serve_ShardedWhatIf|ShardRouter_Rebase|Convergence)'

echo "bench suite results in $OUT:"
ls -l "$OUT"
