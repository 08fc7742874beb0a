#!/usr/bin/env bash
# bench.sh — measure the simulator's performance baseline.
#
# Runs BenchmarkSimulatorThroughput, BenchmarkIncastBurst,
# BenchmarkPacketPool, BenchmarkNextHops and BenchmarkHybridThroughput (via
# go test), a fixed fig08+fig09 pass with a heap summary, a K=16
# shard-speedup probe (4 conservative-PDES shards vs 1), a hybrid-speedup
# probe (packet vs hybrid mode on the long-background-flows workload), and
# the full `-all -scale 0.1` experiments workload, writing everything to a
# tracked JSON baseline.
#
#   scripts/bench.sh                       # print, write BENCH_9.json
#   scripts/bench.sh -out BENCH_10.json    # write a new baseline
#   scripts/bench.sh -compare BENCH_9.json # exit non-zero on >20% events/sec
#                                          # loss, >20% allocs/op growth
#                                          # (throughput or incast), >0.9
#                                          # allocs per packet, any
#                                          # allocation in the packet pool,
#                                          # a hybrid speedup below 5x, or
#                                          # (on >= 4 procs) a 4-shard
#                                          # speedup below 2x
#   scripts/bench.sh -skip-all ...         # skip the slow -all pass
#
# Pass -compare (without -out) in CI to gate on the checked-in baseline.
set -euo pipefail
cd "$(dirname "$0")/.."

args=("$@")
if [ $# -eq 0 ]; then
    args=(-out BENCH_9.json)
fi

exec go run ./cmd/bench "${args[@]}"
