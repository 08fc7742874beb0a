#!/usr/bin/env bash
# mutants.sh — seeded-mutation corpus. M1-M11 score the runtime backstops on
# packet ownership and shard isolation (no lint rule covers either). M12-M13
# score rng-taint: both historical seed bugs pass go test. M14 and M16 are
# the two plants of the deleted sched-droppederr rule, each caught by an
# ordinary test: a NIC enqueue whose refusal goes unhandled, and Build
# dropping Validate's error. M15 scores the race test that replaced the
# mutable-globals rule. M17 drops Validate's error in dibsim. M18-M19 score
# the delivery-clocked transmitter: a queue view that reads the port without
# catching it up, and a completion tie ordered after its own instant. M20
# scores the one forwarding engine: a CIOQ switch that skips the shared
# spray decision, caught by the architecture parity test. M21-M22 score the
# indexed fluid solver against its rescanning reference: a candidate filter
# that drops a flow whose qualifying link is not its first path link, and a
# changed share left at its old place in the heap. M23-M24 score the
# per-shard instruments against the one-shard run: an event-log merge that
# ignores each record's same-instant key, and a path hop recorded after
# Enqueue, which on an idle cross-shard port has already handed the packet
# (and its path) off. M25-M26 score the refusals that replaced retired
# Config knobs: Validate's one-shot size check, and dibsim's refusal of a
# retired config-file key at any but its dumped value. M27-M28 score the
# set-up shortcuts against their references: routing tables keyed by
# attachment switch that lose the last hop to the host, and a lazily seeded
# RNG source that seeds from the wrong value. M30 and M33 score the other
# two dibslint rules: each plant changes a value that no go test but a
# golden constant sees, so the rule's finding is its only catch. M35-M37
# are the behaviour plants of the deleted nondet-randnew and float-eq
# rules, each caught by an ordinary test. M38 puts back a closure per flow
# open, which only the incast storm's allocation ceiling sees. M39 lets a
# CIOQ switch detour before the VOQ while the desired egress queue still has
# a slot, which the DIBS-rule assertion in the forwarding parity test sees.
# DESIGN.md §8 states the scoring rule and lists every rule deleted by it.
# Each row plants one bug in a temp copy of the tree and names the check
# that must catch it, with the output that proves it failed for the right
# reason. A row whose source text no longer matches exactly once is an error
# (fix the row, do not skip it); so is a mutant that does not compile, a
# command that fails on the clean copy, and a mutant that survives.
# DESIGN.md §8 "Runtime backstops" maps rows to checks.
set -uo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
(cd "$root" && tar -c --exclude=.git .) | tar -x -C "$tmp"
cd "$tmp" || exit 1
failed=0
declare -A clean # commands already seen passing on the unmutated copy

# mutant ID FILE OLD NEW WANT CMD...: replace OLD by NEW in FILE, run CMD.
mutant() {
    local id=$1 file=$2 old=$3 new=$4 want=$5 src out
    shift 5
    src=$(<"$file")
    local rest=${src#*"$old"}
    if [[ $rest == "$src" || $rest == *"$old"* ]]; then
        echo "$id STALE: text to replace is not found exactly once in $file"; failed=1; return
    fi
    if [[ -z ${clean[$*]-} ]] && ! out=$("$@" 2>&1); then
        echo "$id BROKEN: '$*' fails on the unmutated tree:"; echo "$out" | tail -20; failed=1; return
    fi
    clean[$*]=1
    printf '%s\n' "${src/"$old"/"$new"}" >"$file"
    if out=$("$@" 2>&1); then
        echo "$id SURVIVED: '$*' passes with the bug planted"; failed=1
    elif [[ $out == *"build failed"* ]]; then
        echo "$id STALE: mutant does not compile:"; echo "$out" | head -5; failed=1
    elif ! grep -qE -- "$want" <<<"$out"; then
        echo "$id WRONG FAILURE: wanted /$want/, got:"; echo "$out" | tail -20; failed=1
    else
        echo "$id caught by '$*': $(grep -m1 -E -- "$want" <<<"$out" | cut -c1-100)"
    fi
    cp "$root/$file" "$file"
}

sw=internal/switching/switching.go
drop=$'\t\ts.hooks.OnDrop(s.ID, p, reason)\n\t}\n\tpacket.Free(p)\n'
droptest=(go test -count=1 -run TestDropPathPoolConservation ./internal/netsim)
shards=(go test -count=1 -run TestShardCountInvariance ./internal/netsim)

# Leaks: one terminal path at a time forgets to return its packet.
mutant M1 $sw $'\t\tw := p.Snapshot()\n\t\tpacket.Free(p)\n' $'\t\tw := p.Snapshot()\n' '"PoolLive":[1-9]' "${shards[@]}"
mutant M2 $sw 's.drop(p, DropOverflow) // the input' 's.Drops[DropOverflow]++; s.hooks.OnDrop(s.ID, p, DropOverflow) // the input' \
    'overflow drops freed 0' go test -count=1 -run TestCIOQIngressOverflow ./internal/switching
mutant M3 internal/host/host.go $'\t\th.NICDrops++\n\t\tpacket.Free(p)\n' $'\t\th.NICDrops++\n' '^--- FAIL' \
    go test -count=1 -run TestNICDropCounting ./internal/host
mutant M4 internal/host/host.go $'\t}\n\tpacket.Free(p)\n}\n' $'\t}\n}\n' 'pool: borrowed' \
    go test -count=1 -run TestQuickNoPacketLeaks ./internal/netsim
mutant M5 $sw "$drop" "${drop%$'\tpacket.Free(p)\n'}" 'packet pool leaked' "${droptest[@]}"
# Double free and use after free in the switch drop path.
mutant M6 $sw "$drop" "$drop"$'\tpacket.Free(p)\n' 'double return' "${droptest[@]}"
mutant M7 $sw $'\tif s.hooks != nil && s.hooks.OnDrop != nil {\n'"$drop" \
    $'\tpacket.Free(p)\n\tif s.hooks != nil && s.hooks.OnDrop != nil {\n'"${drop%$'\tpacket.Free(p)\n'}" \
    'OnDrop read a freed packet' "${droptest[@]}"
# Shard protocol: a window wider than the lookahead; a worker sharing memory;
# a coordinator that flushes before its last worker is done; a merge that
# reverses per-link FIFO order (merely dropping Seq from the comparator
# survives: batches this small are insertion-sorted, which is stable, from
# emission order). GOMAXPROCS=2 so that there is a second worker to race
# with wherever this runs.
race=(env GOMAXPROCS=2 GORACE=halt_on_error=1 go test -race -count=1 -run TestShardCountInvariance ./internal/netsim)
mutant M8 internal/netsim/shard.go 'n.lookahead(), end,' '2*n.lookahead(), end,' 'pdes: lookahead violation' "${shards[@]}"
mutant M9 internal/pdes/pdes.go $'\tfor s := w; s < e.nShards; s += e.workers {\n' \
    $'\tfor s := w; s < e.nShards; s += e.workers {\n\t\te.order = append(e.order, int32(s))\n' \
    'DATA RACE' "${race[@]}" # passes without -race
mutant M10 internal/pdes/pdes.go $'\tfor w := 1; w < e.workers; w++ {\n\t\te.done[w].wait(' $'\tfor w := 1; w < e.workers-1; w++ {\n\t\te.done[w].wait(' \
    'DATA RACE' "${race[@]}"
mutant M11 internal/pdes/pdes.go $'\treturn cmp.Compare(x.Seq, y.Seq)\n' $'\treturn cmp.Compare(y.Seq, x.Seq)\n' \
    'diverged from Shards=1|cross-shard delivery|panic:' "${shards[@]}"

# rng-taint: the two historical seed bugs, which pass go test: fig06's
# per-run seed (the `_ = rng.Derive` keeps the import used) and jellyfish's
# retry seed. Then a NIC enqueue whose refusal goes unhandled, which the
# host's drop count sees.
mutant M12 internal/experiments/figures_click.go \
    'cfg.Seed = int64(rng.Derive(uint64(o.Seed), fmt.Sprintf("experiments/fig06/run%d", run)))' \
    $'cfg.Seed = o.Seed + int64(run)*7919\n\t\t\t_ = rng.Derive' \
    'figures_click.go:[0-9]+:[0-9]+: rng-taint: ad-hoc seed arithmetic' go run ./cmd/dibslint ./internal/experiments
mutant M13 internal/topology/topology.go 'spec, seed, attempt)' 'spec, seed+int64(attempt)*0x9E37, attempt)' \
    'topology.go:[0-9]+:[0-9]+: rng-taint: ad-hoc seed arithmetic' go run ./cmd/dibslint ./internal/topology
mutant M14 internal/host/host.go $'\tif r := h.NIC.Enqueue(p); !r.Accepted {\n\t\th.NICDrops++\n\t\tpacket.Free(p)\n\t}\n' \
    $'\th.NIC.Enqueue(p)\n' 'NIC drops = 0, want 3' go test -count=1 ./internal/host
# Per-run state in a package variable: concurrent runs race on it.
mutant M15 $sw $'func (s *Switch) drop(p *packet.Packet, reason DropReason) {\n' \
    $'var dropCount uint64\n\nfunc (s *Switch) drop(p *packet.Packet, reason DropReason) {\n\tdropCount++\n' \
    'DATA RACE' env GORACE=halt_on_error=1 go test -race -count=1 ./internal/runner

# Validate returns an error; dropping it lets any config through: Build
# would run it (the CIOQ and PFC refusal tables see that), and dibsim would
# hand it to Build's panic.
check=$'if err := cfg.Validate(); err != nil {\n\t\t'
mutant M16 internal/netsim/network.go "$check"$'panic(err)\n\t}\n' $'cfg.Validate()\n' \
    'case 0 should panic' go test -count=1 -run 'TestCIOQValidation|TestPFCValidation' ./internal/netsim
mutant M17 cmd/dibsim/main.go "$check"$'fmt.Fprintln(os.Stderr, err)\n\t\tos.Exit(2)\n\t}\n' $'cfg.Validate()\n' \
    'stderr is not 1 netsim: line' go test -count=1 -run TestCLI ./cmd/dibsim

# Delivery-clocked transmitter (switching.OutPort): the switch's queue view
# reads a port that has not caught up on its own completions, so a detour
# sees a neighbor full that has already drained; the completion tie rule
# orders a serialization end after the event sitting on its own key.
mutant M18 $sw 'func (s *Switch) QueueFull(port int) bool { return s.ports[port].QueueFull() }' \
    'func (s *Switch) QueueFull(port int) bool { return s.ports[port].Q.Full() }' \
    'output fingerprint 0x[0-9a-f]+, want' go test -count=1 -run 'TestAllExperimentsSmoke/^fig01$' ./internal/experiments
mutant M19 internal/eventq/eventq.go 's.curSeq >= seq' 's.curSeq > seq' \
    'zero-delay delivery at the serialization end' go test -count=1 -run TestOutPortSameInstantOrder ./internal/switching

# One forwarding engine (switching.Switch.Receive): the CIOQ ingress stage
# must see the same spray decision as an output-queued switch.
mutant M20 $sw 'if s.PacketSpray && len(nhs) > 1' 'if s.PacketSpray && s.cioq == nil && len(nhs) > 1' \
    'FAIL: TestForwardingParity/spray/cioq' go test -count=1 -run TestForwardingParity ./internal/switching

# Indexed progressive filling (fluid.solve) against refSolve, the rescan it
# replaced: the round's candidate flows must include every flow on a
# qualifying link, and a heap link's new share must be re-keyed.
solve=internal/fluid/solve.go
solvetest=(go test -count=1 -run TestSolveMatchesReference ./internal/fluid)
mutant M21 $solve $'\t\tif !s.frozen[j] {\n\t\t\ts.cand[j>>6]' $'\t\tif !s.frozen[j] && s.path[s.pstart[j]] == l {\n\t\t\ts.cand[j>>6]' \
    'rate .*, reference' "${solvetest[@]}"
mutant M22 $solve $'if ls.hpos >= 0 {\n\t\t\t\t\t\ts.heapFix(ls.hpos)\n' $'if ls.hpos >= 0 {\n' \
    'rate .*, reference' "${solvetest[@]}"

# Per-shard instruments, caught by the detour-heavy burst's shard-count
# invariance subtest.
burst=(go test -count=1 -run 'TestShardCountInvariance/burst' ./internal/netsim)
mutant M23 internal/trace/trace.go $'\tif a.pri != b.pri {\n\t\treturn a.pri < b.pri\n\t}\n' '' \
    'Shards=[0-9]+ diverged' "${burst[@]}"
mutant M24 $sw $'\ts.trace(p, desired, false)\n\tr := s.ports[desired].Enqueue(p)\n' \
    $'\tr := s.ports[desired].Enqueue(p)\n\ts.trace(p, desired, false)\n' \
    'Shards=[0-9]+ diverged' "${burst[@]}"

# Inputs Build cannot honor are refused by name: Validate names a one-shot
# of empty flows (which would panic at the first flow), and dibsim refuses a
# retired key that holds anything but the value an old dump wrote.
mutant M25 internal/netsim/config.go $'\t\treject(os.Bytes <= 0, "OneShot.Bytes must be positive")\n' '' \
    'FAIL: TestValidateRejectsWhatBuildCannotBuild/one-shot_of_nothing' \
    go test -count=1 -run TestValidateRejectsWhatBuildCannotBuild ./internal/netsim
mutant M26 cmd/dibsim/main.go 'json.Unmarshal(raw, &got) != nil || got != want' 'json.Unmarshal(raw, &got) != nil' \
    'FAIL: TestCLI/ConfigRefusesUnknownKeys' go test -count=1 -run TestCLI ./cmd/dibsim

# Build's shortcuts must not move a route or a draw: the attachment-switch
# routes are held to the per-host BFS, the lazy source to the eager one.
mutant M27 internal/topology/topology.go $'\tif node == r.attach {\n\t\treturn r.last[:]\n\t}\n' '' \
    'FAIL: TestRoutesMatchReference' go test -count=1 -run TestRoutesMatchReference ./internal/topology
mutant M28 internal/rng/rng.go 'rand.NewSource(s.seed)' 'rand.NewSource(s.seed + 1)' \
    'FAIL: TestNewMatchesEagerSource' go test -count=1 -run TestNewMatchesEagerSource ./internal/rng

# The other two lint rules. Each plant changes a value that only a golden
# constant sees: a promotion order taken from a map that no repeated run
# happens to expose, and a squared RTT deviation that moves a timeout.
lint=(go run ./cmd/dibslint)
mutant M30 internal/fluid/fluid.go $'\tfor _, f := range e.flows {\n\t\tfor _, l := range f.Path {\n\t\t\tif l.Hot() {\n\t\t\t\tvictims = append(victims, f)\n\t\t\t\tbreak\n\t\t\t}\n\t\t}\n\t}\n' \
    $'\thotFlows := make(map[*Flow]bool)\n\tfor _, f := range e.flows {\n\t\tfor _, l := range f.Path {\n\t\t\tif l.Hot() {\n\t\t\t\thotFlows[f] = true\n\t\t\t}\n\t\t}\n\t}\n\tfor f := range hotFlows {\n\t\tvictims = append(victims, f)\n\t}\n' \
    'fluid.go:[0-9]+:[0-9]+: nondet-maprange: append to outer state' "${lint[@]}" ./internal/fluid
mutant M33 internal/transport/transport.go 's.rttvar = (3*s.rttvar + d) / 4' 's.rttvar = (3*s.rttvar + d*d/s.srtt) / 4' \
    'transport.go:[0-9]+:[0-9]+: vtime-overflow: Time × Time product' "${lint[@]}" ./internal/transport

# The deleted rules' bugs, caught by ordinary tests: a switch stream seeded
# from its own ID instead of Config.Seed (nondet-randnew), the window clamp
# and the solver's freeze test spelled as exact float compares (float-eq).
# The property's inputs are a function of the quick seed; M36 survives about
# one seed in twenty (14 and 34 among 1-60), so its row names a seed that
# catches it.
mutant M35 $sw $'\t\trng:    rng,\n' $'\t\trng:    rand.New(rand.NewSource(int64(id))),\n' \
    'FAIL: TestEveryStreamFollowsSeed/switch/N' go test -count=1 -run TestEveryStreamFollowsSeed ./internal/netsim
mutant M36 internal/transport/transport.go 's.cwnd > s.cfg.MaxCwnd {' 's.cwnd == s.cfg.MaxCwnd {' \
    'FAIL: TestQuickSenderInvariants' env DIBS_QUICK_SEED=1 go test -count=1 -run TestQuickSenderInvariants ./internal/transport
mutant M37 $solve 'if s.links[l].share <= at {' 'if s.links[l].share == min {' 'rate .*, reference' "${solvetest[@]}"

# The per-flow path allocates per flow only what DESIGN §9 "Per-flow state"
# lists. A closure per endpoint creation, instead of the shard's one opener,
# changes no event key and no value; only the storm's allocation ceiling
# sees it.
mutant M38 internal/netsim/shard.go $'\tds.sched.At(f.at, ds.openFn)\n\tss.opens = append(ss.opens, flowOpen{f: f, sender: true})\n\tss.sched.At(f.at, ss.openFn)\n' \
    $'\tds.sched.At(f.at, func() { ds.open() })\n\tss.opens = append(ss.opens, flowOpen{f: f, sender: true})\n\tss.sched.At(f.at, func() { ss.open() })\n' \
    'FAIL: TestAllocationCeilings/incast_storm' go test -count=1 -run TestAllocationCeilings ./internal/netsim

# The DIBS rule (§2): a packet is detoured only off a full queue. A CIOQ
# pre-VOQ check that fires while the desired egress queue has a slot left
# detours a packet the queue would have taken.
mutant M39 $sw 'if s.policy != nil && s.ports[desired].QueueFull() {' \
    'if s.policy != nil && s.ports[desired].QueueLen() > 0 {' \
    'desired full false' go test -count=1 -run 'TestForwardingParity/full-egress_detour' ./internal/switching

exit $failed
