#!/usr/bin/env bash
# check.sh — the repository's one gate; CI runs exactly this script.
# Every step prints its name and must pass; the script stops at the first
# failure.
#
#   fmt     gofmt on every tracked .go file (fails listing unformatted files)
#   vet     go vet across the module
#   lint    dibslint: the simulator's own determinism / virtual-time rules
#   build   go build everything, including cmd/
#   fma     no fused multiply-add in any module function built for arm64
#   tested  every package has a test file
#   test    full test suite (use SHORT=1 for the quick subset)
#   mutants seeded-mutation corpus: runtime backstops and lint rules (full
#           only)
#   bench   go run ./benchmark -quick: every workload's correctness checks
#           (full only; reports land in the gitignored .bench_out/)
#   race    race detector over the fast packages (RACE=0 to skip)
set -euo pipefail
cd "$(dirname "$0")/.."

step() { printf '\n== %s\n' "$*"; }

step "gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

step "go vet"
go vet ./...

step "dibslint"
go run ./cmd/dibslint -tests ./...

step "go build"
go build ./...

# arm64 fuses a*b+c into one instruction with a single rounding; amd64
# never does, and the goldens are amd64 numbers. An explicit float64(...)
# around the product keeps it rounded on its own (Go spec, Conversions),
# so no module function may compile to a fused op. benchmark/ is skipped:
# its five fused sites (quantiles and layer shares, not simulation output)
# wait for the next change to the benchmark.
step "no fused multiply-add in arm64 module code"
armdir=$(mktemp -d)
trap 'rm -rf "$armdir"' EXIT
GOARCH=arm64 go test -c -o "$armdir/" $(go list ./... | grep -v '^dibs/benchmark$')
fused=$(for bin in "$armdir"/*.test; do
    go tool objdump -s '^dibs[./]' "$bin" | awk '/^TEXT /{sym=$2} /FMADDD|FMSUBD|FNMADDD|FNMSUBD/{print sym, $1}'
done)
if [ -n "$fused" ]; then
    echo "fused multiply-add in module code (wrap the product in float64(...)):" >&2
    echo "$fused" >&2
    exit 1
fi

# A package without a test is only ever compiled: nothing it prints or
# returns is checked. Every package must carry at least one test file.
step "every package has a test"
untested=$(go list -f '{{if not (or .TestGoFiles .XTestGoFiles)}}{{.ImportPath}}{{end}}' ./...)
if [ -n "$untested" ]; then
    echo "packages without a test file:" >&2
    echo "$untested" >&2
    exit 1
fi

step "go test"
if [ "${SHORT:-0}" = "1" ]; then
    go test -short ./...
else
    go test ./...

    # Plant each bug of the seeded-mutation corpus and require the named
    # check to fail: the score sheet for the packet-ownership and
    # shard-isolation backstops, which no lint rule covers, for the three
    # dibslint rules whose bug no test but a golden constant sees, and for
    # the tests that replaced the deleted rules.
    step "seeded-mutation corpus"
    scripts/mutants.sh

    # The repository benchmark, shortened: its numbers are not comparable
    # with a full run, but its correctness checks are the same — repeats
    # fingerprint-equal, the pool identity, the sharded run equal to one
    # shard and the sweep at N workers equal to one worker.
    step "benchmark -quick"
    go run ./benchmark -quick
fi

# The determinism gates run by name even in SHORT mode, so a future -short
# guard on them can never silently retire them: seeded packet and hybrid
# runs byte-identical and equal to their golden fingerprints, and
# fluid-path FCT percentiles within tolerance of the all-packet reference.
step "determinism + golden fingerprints, hybrid FCT agreement"
go test -count=1 -run 'TestSeededRunsAreByteIdentical|TestHybridDeterminism|TestHybridFCTAgreement' ./internal/netsim

if [ "${RACE:-1}" = "1" ]; then
    step "go test -race (short)"
    go test -race -short ./...

    # The runner's concurrency proof runs full experiments, so -short skips
    # it above; run it explicitly — it is the gate for the parallel layer.
    step "go test -race internal/runner"
    go test -race -count=1 ./internal/runner

    # The window loop itself, at one, two and four workers: every shard
    # once per window and never twice at a time, progress beside a hogged
    # processor (the barrier's park fallback), no allocation in warm windows.
    step "go test -race -cpu 1,2,4 internal/pdes"
    go test -race -cpu 1,2,4 -count=1 ./internal/pdes

    # The sharded engine's determinism property (every shard count produces
    # the byte-identical run) doubles as its data-race proof: the barrier's
    # epoch gates are the only synchronization it has. No lint rule checks
    # what shard workers share, so this named step is the sole proof of
    # shard isolation — do not fold it into a -short run.
    step "go test -race shard determinism"
    go test -race -count=1 -run TestShardCountInvariance ./internal/netsim
fi

# With one proc every shard runs inline on the caller's goroutine — no
# worker, no barrier — and the run must still be the byte-identical one.
step "shard determinism at GOMAXPROCS=1"
GOMAXPROCS=1 go test -count=1 -run TestShardCountInvariance ./internal/netsim

printf '\nall checks passed\n'
