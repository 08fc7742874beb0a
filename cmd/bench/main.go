// Command bench produces and checks the repository's tracked performance
// baseline (BENCH_N.json).
//
// It runs the headline Go benchmarks (BenchmarkSimulatorThroughput,
// BenchmarkIncastBurst, BenchmarkPacketPool, BenchmarkNextHops,
// BenchmarkHybridThroughput) as a `go test -bench` subprocess, times a
// fixed small-scale fig08+fig09 pass (recording a heap summary around it),
// a K=16 shard-speedup probe (4 conservative-PDES shards vs 1), a
// hybrid-speedup probe (packet vs hybrid mode on the
// long-background-flows workload), and a full `-all -scale 0.1`
// experiments pass in-process, and writes the numbers as JSON. The
// throughput benchmark also reports pkts/op, from which allocs_per_packet
// is derived — the headline number of the zero-allocation packet path.
//
// Usage:
//
//	bench -out BENCH_9.json              # measure and write the baseline
//	bench -compare BENCH_9.json          # measure and gate: exit 1 on a
//	                                     # >20% events/sec loss, a >20%
//	                                     # allocs/op growth (throughput or
//	                                     # incast), more than 0.9 allocs
//	                                     # per packet, any allocation in
//	                                     # the packet pool, a hybrid-mode
//	                                     # speedup < 5x, or (with >= 4
//	                                     # procs) a 4-shard speedup < 2x
//	bench -out B.json -skip-all          # skip the slow -all pass
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"time"

	"dibs/internal/eventq"
	"dibs/internal/experiments"
	"dibs/internal/netsim"
)

// Baseline is the tracked benchmark snapshot.
type Baseline struct {
	GoVersion  string                 `json:"go_version"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	Benchmarks map[string]BenchResult `json:"benchmarks"`
	// Fig0809Seconds is the wall time of a fig08+fig09 pass at seed 1,
	// scale 0.1, default workers.
	Fig0809Seconds float64 `json:"fig08_09_seconds"`
	// Fig0809Heap summarizes heap behavior over that same pass.
	Fig0809Heap HeapSummary `json:"fig08_09_heap"`
	// AllScale01Seconds is the wall time of every experiment at scale 0.1
	// (the `cmd/figures -all -scale 0.1` workload), default workers.
	AllScale01Seconds float64 `json:"all_scale_0.1_seconds"`
	// ShardSpeedup is the events/sec ratio of a 4-shard over a 1-shard run
	// of the same K=16 fat-tree workload (conservative PDES, byte-identical
	// results). The floor it is gated against depends on GOMAXPROCS, see
	// shardSpeedupFloor.
	ShardSpeedup float64 `json:"shard_speedup,omitempty"`
	// HybridSpeedup is the wall-clock ratio of a packet-mode run over a
	// hybrid-mode run of the same long-background-flows workload (the
	// BenchmarkHybridThroughput config). Unlike ShardSpeedup it needs no
	// extra cores — the rate model wins by simulating fewer events, not by
	// parallelism — so the >= 5x gate applies unconditionally.
	HybridSpeedup float64 `json:"hybrid_speedup,omitempty"`
}

// HeapSummary is a runtime.MemStats delta over a measured pass — the
// stdlib-only stand-in for a full heap profile, enough to spot an
// allocation-rate regression at a glance.
type HeapSummary struct {
	// TotalAllocMB is heap megabytes allocated during the pass.
	TotalAllocMB float64 `json:"total_alloc_mb"`
	// NumGC is the number of GC cycles the pass triggered.
	NumGC uint32 `json:"num_gc"`
	// HeapInUseMB is the live heap at the end of the pass.
	HeapInUseMB float64 `json:"heap_in_use_mb"`
}

// BenchResult is one parsed `go test -bench` line.
type BenchResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// EventsPerSec is derived from the benchmark's events/op metric; only
	// BenchmarkSimulatorThroughput reports it.
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	// PktsPerOp is the pkts/op metric (packets emitted per iteration);
	// AllocsPerPacket = AllocsPerOp / PktsPerOp, the per-packet allocation
	// budget of the hot path.
	PktsPerOp       float64 `json:"pkts_per_op,omitempty"`
	AllocsPerPacket float64 `json:"allocs_per_packet,omitempty"`
}

// regressionTolerance is the fraction of the baseline events/sec a new
// measurement may lose before -compare fails the run.
const regressionTolerance = 0.20

// shardSpeedupFloor is the events/sec ratio a 4-shard K=16 run must reach
// over the 1-shard run. The engine runs min(shards, GOMAXPROCS) workers:
// with four or more procs every shard has its own and must double the
// throughput; with two or three the four shards share two or three
// workers; with one they run inline on the caller's goroutine, where the
// windows and the hand-off are pure overhead that may cost 15% at most.
func shardSpeedupFloor(procs int) float64 {
	switch {
	case procs >= 4:
		return 2.0
	case procs >= 2:
		return 1.3
	default:
		return 0.85
	}
}

// minHybridSpeedup is the wall-clock factor the hybrid fluid/packet mode
// must gain over full packet fidelity on the long-background-flows
// workload. The rate model replaces ~per-packet events with coarse ticks,
// so the measured ratio sits far above this floor; 5x leaves room for the
// packet-fidelity warm-up before the flows demote.
const minHybridSpeedup = 5.0

// maxAllocsPerPacket is the absolute ceiling on steady-state allocations
// per simulated packet, gated independently of the stored baseline. The
// flattened-FIB topology and chunked event nodes brought the measured value
// to ~0.6; the ceiling leaves noise headroom while staying well under the
// 1.38 the previous baseline tolerated.
const maxAllocsPerPacket = 0.9

func main() {
	var (
		out     = flag.String("out", "", "write the measured baseline to this JSON file")
		compare = flag.String("compare", "", "baseline JSON to gate against (>20% events/sec regression fails)")
		skipAll = flag.Bool("skip-all", false, "skip the full -all -scale 0.1 experiments pass")
	)
	flag.Parse()
	if *out == "" && *compare == "" {
		fmt.Fprintln(os.Stderr, "bench: need -out and/or -compare")
		os.Exit(2)
	}

	b := Baseline{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchmarks: map[string]BenchResult{},
	}

	fmt.Fprintln(os.Stderr, "== go test -bench (throughput, incast)")
	if err := runGoBench(&b); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}

	fmt.Fprintln(os.Stderr, "== fig08+fig09 pass (scale 0.1)")
	b.Fig0809Seconds, b.Fig0809Heap = timeExperimentsWithHeap([]string{"fig08", "fig09"})
	fmt.Fprintf(os.Stderr, "   %.1fs, %.0f MB allocated, %d GCs, %.0f MB live\n",
		b.Fig0809Seconds, b.Fig0809Heap.TotalAllocMB, b.Fig0809Heap.NumGC, b.Fig0809Heap.HeapInUseMB)

	fmt.Fprintln(os.Stderr, "== shard speedup (K=16, 4 shards vs 1)")
	b.ShardSpeedup = measureShardSpeedup()
	fmt.Fprintf(os.Stderr, "   %.2fx at GOMAXPROCS=%d\n", b.ShardSpeedup, b.GOMAXPROCS)

	fmt.Fprintln(os.Stderr, "== hybrid speedup (long flows, packet vs hybrid)")
	b.HybridSpeedup = measureHybridSpeedup()
	fmt.Fprintf(os.Stderr, "   %.2fx\n", b.HybridSpeedup)

	if !*skipAll {
		fmt.Fprintln(os.Stderr, "== all experiments (scale 0.1)")
		var ids []string
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
		b.AllScale01Seconds = timeExperiments(ids)
		fmt.Fprintf(os.Stderr, "   %.1fs\n", b.AllScale01Seconds)
	}

	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	os.Stdout.Write(data)

	if *out != "" {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}
	if *compare != "" {
		if err := gate(*compare, b); err != nil {
			fmt.Fprintf(os.Stderr, "bench: REGRESSION: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "no regression vs %s\n", *compare)
	}
}

// benchLineRe matches `go test -bench` result lines, e.g.
// BenchmarkSimulatorThroughput-4  5  244034957 ns/op  425379 events/op  42216896 B/op  1389550 allocs/op
var benchLineRe = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)
var metricRe = regexp.MustCompile(`([\d.e+]+)\s+(\S+)`)

// runGoBench executes the headline benchmarks in a subprocess and parses
// the results into b.
func runGoBench(b *Baseline) error {
	cmd := exec.Command("go", "test", "-run", "^$",
		"-bench", "^(BenchmarkSimulatorThroughput|BenchmarkIncastBurst|BenchmarkPacketPool|BenchmarkNextHops|BenchmarkHybridThroughput)$",
		"-benchmem", ".")
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go test -bench: %w", err)
	}
	for _, line := range regexp.MustCompile(`\r?\n`).Split(string(outBytes), -1) {
		m := benchLineRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := m[1]
		var r BenchResult
		var eventsPerOp float64
		for _, mm := range metricRe.FindAllStringSubmatch(m[2], -1) {
			v, err := strconv.ParseFloat(mm[1], 64)
			if err != nil {
				continue
			}
			switch mm[2] {
			case "ns/op":
				r.NsPerOp = v
			case "B/op":
				r.BytesPerOp = v
			case "allocs/op":
				r.AllocsPerOp = v
			case "events/op":
				eventsPerOp = v
			case "pkts/op":
				r.PktsPerOp = v
			}
		}
		if eventsPerOp > 0 && r.NsPerOp > 0 {
			r.EventsPerSec = eventsPerOp / r.NsPerOp * 1e9
		}
		if r.PktsPerOp > 0 {
			r.AllocsPerPacket = r.AllocsPerOp / r.PktsPerOp
		}
		b.Benchmarks[name] = r
		fmt.Fprintf(os.Stderr, "   %s\n", line)
	}
	if _, ok := b.Benchmarks["BenchmarkSimulatorThroughput"]; !ok {
		return fmt.Errorf("BenchmarkSimulatorThroughput missing from bench output")
	}
	return nil
}

// measureShardSpeedup times one K=16 fat-tree workload (1024 hosts, 320
// switches) under 1 and then 4 conservative-PDES scheduler shards and
// returns the events/sec ratio. The input is the repository benchmark's
// fabric_k16_shards2 (5 ms background, 8000 qps incast, 10 + 30 ms), where
// the ROADMAP's exit criterion for sharding is read: a window there carries
// ~60 µs of work. The probe this replaces ran 3 ms of default traffic and
// 20 ms of drain, ~19 µs a window, most of it the per-message hand-off, and
// measures 1.1x at 2 procs and 0.85x at 1 where this one measures 1.5x and
// 1.0x; what that regime needs is listed in ROADMAP. Results are
// byte-identical by construction (the property netsim's
// TestShardCountInvariance pins), so this measures pure engine throughput.
func measureShardSpeedup() float64 {
	run := func(shards int) float64 {
		cfg := netsim.DefaultConfig()
		cfg.FatTreeK = 16
		cfg.Seed = 7
		cfg.Duration = 10 * eventq.Millisecond
		cfg.Drain = 30 * eventq.Millisecond
		cfg.BGInterarrival = 5 * eventq.Millisecond
		cfg.Query.QPS = 8000
		cfg.Shards = shards
		n := netsim.Build(cfg)
		start := time.Now()
		n.Run()
		return float64(n.Executed()) / time.Since(start).Seconds()
	}
	// Best of three, alternating: the floors gate wherever CI runs, and
	// one stolen core during a one-second run would fail them.
	var one, four float64
	for i := 0; i < 3; i++ {
		one = max(one, run(1))
		four = max(four, run(4))
	}
	fmt.Fprintf(os.Stderr, "   1 shard: %.0f events/sec, 4 shards: %.0f events/sec\n", one, four)
	return four / one
}

// measureHybridSpeedup times the long-background-flows workload (the
// BenchmarkHybridThroughput config: K=4 fat-tree, one long flow per
// adjacent host pair, marking NICs) at full packet fidelity and in hybrid
// mode, returning the wall-clock ratio. Hybrid runs the same flows as
// packets until their cwnds stabilize, then hands the bulk of the bytes to
// the rate model, so the ratio is the real end-to-end payoff of the fast
// path — not an events-only accounting trick.
func measureHybridSpeedup() float64 {
	run := func(mode netsim.SimMode) float64 {
		cfg := netsim.DefaultConfig()
		cfg.FatTreeK = 4
		cfg.Seed = 7
		cfg.Query = nil
		cfg.BGInterarrival = 0
		cfg.Long = &netsim.LongFlows{PerPair: 1}
		cfg.HostMarkAtPkts = 20
		cfg.Mode = mode
		cfg.Duration = 300 * eventq.Millisecond
		cfg.Drain = 0
		n := netsim.Build(cfg)
		start := time.Now()
		n.Run()
		return time.Since(start).Seconds()
	}
	pkt := run(netsim.ModePacket)
	hyb := run(netsim.ModeHybrid)
	fmt.Fprintf(os.Stderr, "   packet: %.2fs, hybrid: %.2fs\n", pkt, hyb)
	return pkt / hyb
}

// timeExperiments runs the named experiments at the fixed baseline setting
// (seed 1, scale 0.1, default workers) and returns the wall time.
func timeExperiments(ids []string) float64 {
	opts := experiments.Opts{Seed: 1, Scale: 0.1}
	start := time.Now()
	for _, id := range ids {
		e, ok := experiments.ByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown experiment %q\n", id)
			os.Exit(1)
		}
		if tables := e.Run(opts); len(tables) == 0 {
			fmt.Fprintf(os.Stderr, "bench: %s produced no tables\n", id)
			os.Exit(1)
		}
	}
	return time.Since(start).Seconds()
}

// timeExperimentsWithHeap is timeExperiments plus a MemStats delta bracket:
// a GC before the pass settles the baseline, and the allocation/GC deltas
// over the pass form the heap summary.
func timeExperimentsWithHeap(ids []string) (float64, HeapSummary) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	secs := timeExperiments(ids)
	runtime.ReadMemStats(&after)
	const mb = 1 << 20
	return secs, HeapSummary{
		TotalAllocMB: float64(after.TotalAlloc-before.TotalAlloc) / mb,
		NumGC:        after.NumGC - before.NumGC,
		HeapInUseMB:  float64(after.HeapInuse) / mb,
	}
}

// gate fails when the new measurement regressed versus the stored baseline:
// more than regressionTolerance events/sec lost, more than
// regressionTolerance allocs/op gained, or any allocation at all in the
// packet pool's steady state.
func gate(path string, got Baseline) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var want Baseline
	if err := json.Unmarshal(data, &want); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	baseTP := want.Benchmarks["BenchmarkSimulatorThroughput"]
	nowTP := got.Benchmarks["BenchmarkSimulatorThroughput"]
	if baseTP.EventsPerSec <= 0 {
		return fmt.Errorf("%s has no events/sec baseline", path)
	}
	if nowTP.EventsPerSec < baseTP.EventsPerSec*(1-regressionTolerance) {
		return fmt.Errorf("events/sec %.0f is %.1f%% below baseline %.0f (tolerance %.0f%%)",
			nowTP.EventsPerSec, 100*(1-nowTP.EventsPerSec/baseTP.EventsPerSec),
			baseTP.EventsPerSec, 100*regressionTolerance)
	}
	fmt.Fprintf(os.Stderr, "events/sec: baseline %.0f, now %.0f (%+.1f%%)\n",
		baseTP.EventsPerSec, nowTP.EventsPerSec, 100*(nowTP.EventsPerSec/baseTP.EventsPerSec-1))
	if baseTP.AllocsPerOp > 0 {
		if nowTP.AllocsPerOp > baseTP.AllocsPerOp*(1+regressionTolerance) {
			return fmt.Errorf("allocs/op %.0f is %.1f%% above baseline %.0f (tolerance %.0f%%)",
				nowTP.AllocsPerOp, 100*(nowTP.AllocsPerOp/baseTP.AllocsPerOp-1),
				baseTP.AllocsPerOp, 100*regressionTolerance)
		}
		fmt.Fprintf(os.Stderr, "allocs/op: baseline %.0f, now %.0f (%+.1f%%)\n",
			baseTP.AllocsPerOp, nowTP.AllocsPerOp, 100*(nowTP.AllocsPerOp/baseTP.AllocsPerOp-1))
	}
	if nowTP.AllocsPerPacket > maxAllocsPerPacket {
		return fmt.Errorf("allocs/packet %.2f exceeds the absolute ceiling %.2f",
			nowTP.AllocsPerPacket, maxAllocsPerPacket)
	}
	if nowTP.PktsPerOp > 0 {
		fmt.Fprintf(os.Stderr, "allocs/packet: %.2f (ceiling %.2f)\n",
			nowTP.AllocsPerPacket, maxAllocsPerPacket)
	}
	if pool, ok := got.Benchmarks["BenchmarkPacketPool"]; ok && pool.AllocsPerOp != 0 {
		return fmt.Errorf("BenchmarkPacketPool allocates %.0f allocs/op; the pool steady state must be 0",
			pool.AllocsPerOp)
	}
	baseIB := want.Benchmarks["BenchmarkIncastBurst"]
	nowIB := got.Benchmarks["BenchmarkIncastBurst"]
	if baseIB.AllocsPerOp > 0 && nowIB.AllocsPerOp > 0 {
		if nowIB.AllocsPerOp > baseIB.AllocsPerOp*(1+regressionTolerance) {
			return fmt.Errorf("IncastBurst allocs/op %.0f is %.1f%% above baseline %.0f (tolerance %.0f%%)",
				nowIB.AllocsPerOp, 100*(nowIB.AllocsPerOp/baseIB.AllocsPerOp-1),
				baseIB.AllocsPerOp, 100*regressionTolerance)
		}
		fmt.Fprintf(os.Stderr, "IncastBurst allocs/op: baseline %.0f, now %.0f (%+.1f%%)\n",
			baseIB.AllocsPerOp, nowIB.AllocsPerOp, 100*(nowIB.AllocsPerOp/baseIB.AllocsPerOp-1))
	}
	// The parallel engine must pay for itself wherever it runs.
	if got.ShardSpeedup > 0 {
		floor := shardSpeedupFloor(got.GOMAXPROCS)
		if got.ShardSpeedup < floor {
			return fmt.Errorf("shard speedup %.2fx at GOMAXPROCS=%d is below the %.2fx floor for that many procs",
				got.ShardSpeedup, got.GOMAXPROCS, floor)
		}
		fmt.Fprintf(os.Stderr, "shard speedup: %.2fx at GOMAXPROCS=%d (gated >= %.2fx, the floor for that many procs)\n",
			got.ShardSpeedup, got.GOMAXPROCS, floor)
	}
	if got.HybridSpeedup > 0 {
		if got.HybridSpeedup < minHybridSpeedup {
			return fmt.Errorf("hybrid speedup %.2fx is below the %.1fx floor",
				got.HybridSpeedup, minHybridSpeedup)
		}
		fmt.Fprintf(os.Stderr, "hybrid speedup: %.2fx (gated >= %.1fx)\n",
			got.HybridSpeedup, minHybridSpeedup)
	}
	return nil
}
