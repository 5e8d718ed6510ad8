#!/usr/bin/env bash
# bench.sh — run the perf-tracking benchmarks and emit a machine-readable
# snapshot (default BENCH_pr10.json) so the repo's performance trajectory
# is diffable across PRs.
#
# Usage:
#   scripts/bench.sh [output.json]
#
# Environment:
#   BENCHTIME  go test -benchtime value (default 1x — each harness runs
#              once; raise for steadier ns/op)
#   BENCH      bench regexp (default: BenchmarkRoundParallel plus every
#              Table/Figure/Ablation harness, the experiment-scheduler
#              smoke — its tableII_smoke_s wall-clock at jobs-1 vs
#              jobs-NumCPU is the grid-level speedup record — the
#              aggregation-rule suite (BenchmarkReducers), the
#              buffered-async engine (BenchmarkAsyncRound, arrivals/s),
#              the tree-reduce fold and the lazy shard-cache suite
#              (BenchmarkTreeReduce, BenchmarkLazyShardSynthesis, plus
#              the striped-cache records: BenchmarkLazyShardSynthesis-
#              Parallel baseline-vs-striped under NumCPU-way contention
#              — the ≥3× ratio CI gates — and BenchmarkLazyShard-
#              PrefetchOverlap cold-vs-warmed, the lease-phase latency
#              the cohort prefetcher hides), the million-client
#              Figure-7 cell (BenchmarkFig7_MillionClients), the kernel
#              micro-benches, and the fault-tolerance pair
#              (BenchmarkFaultedRound benign-vs-faulted — the
#              injection overhead of the pure-hash fault plan, with
#              faults/round and retries/round telemetry — and
#              BenchmarkCheckpointRoundTrip, the kill+resume tax with
#              its snapshot_kb on-disk footprint))
#
# Each JSON record carries ns_per_op, allocs_per_op, bytes_per_op and
# mb_per_op as reported by -benchmem, plus any domain metrics the bench
# emitted via b.ReportMetric (accuracy, skew, sharpness, wire bytes per
# round / per payload, codec MB/s, and the TableII-smoke wall-clock — so
# the trajectory covers communication and scheduling as well as compute).
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=${1:-BENCH_pr10.json}
BENCHTIME=${BENCHTIME:-1x}
BENCH=${BENCH:-'BenchmarkRoundParallel|BenchmarkExperimentScheduler|BenchmarkTransportCodecs|BenchmarkReducers|BenchmarkAsyncRound|BenchmarkTreeReduce|BenchmarkLazyShard|BenchmarkTable|BenchmarkFig|BenchmarkAblation|BenchmarkTheory|BenchmarkCrossAggr|BenchmarkCosineSimilarity|BenchmarkSimilarityMatrix|BenchmarkLocalTrainingCNN|BenchmarkLandscapeScan|BenchmarkFaultedRound|BenchmarkCheckpointRoundTrip'}

RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

go test -run xxx -bench "$BENCH" -benchmem -benchtime "$BENCHTIME" . | tee "$RAW"

awk '
BEGIN { print "["; first = 1 }
/^Benchmark/ {
    name = $1; iters = $2
    ns = ""; bytes = ""; allocs = ""; metrics = ""
    # The tail of a -benchmem line is strict (value, unit) pairs.
    for (i = 3; i + 1 <= NF; i += 2) {
        val = $i; unit = $(i + 1)
        if (unit == "ns/op")          ns = val
        else if (unit == "B/op")      bytes = val
        else if (unit == "allocs/op") allocs = val
        else metrics = metrics sprintf("%s\"%s\": %s", (metrics == "" ? "" : ", "), unit, val)
    }
    if (!first) print ","
    first = 0
    printf "  {\"bench\": \"%s\", \"iters\": %s", name, iters
    if (ns != "")     printf ", \"ns_per_op\": %s", ns
    if (bytes != "")  printf ", \"bytes_per_op\": %s, \"mb_per_op\": %.4f", bytes, bytes / 1048576
    if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
    if (metrics != "") printf ", \"metrics\": {%s}", metrics
    printf "}"
}
END { print "\n]" }
' "$RAW" > "$OUT"

echo "wrote $OUT ($(grep -c '"bench"' "$OUT") benchmarks)"
