// Benchmarks regenerating the paper's evaluation, one per table/figure.
// Each benchmark iteration runs the corresponding experiment at a reduced
// scale (the full-scale numbers live in EXPERIMENTS.md and come from
// cmd/figures). Custom metrics report the headline quantity of each figure
// so `go test -bench=.` doubles as a shape regression check.
//
// Run a single figure: go test -bench=BenchmarkFig08 -benchtime=1x
package dibs_test

import (
	"testing"

	"dibs"
	"dibs/internal/experiments"
	"dibs/internal/packet"
	"dibs/internal/topology"
)

// benchScale keeps a single iteration around a second of wall time.
const benchScale = 0.05

func benchExperiment(b *testing.B, id string) {
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tables := e.Run(experiments.Opts{Seed: int64(i + 1), Scale: benchScale})
		if len(tables) == 0 || len(tables[0].Rows) == 0 && len(tables[0].Notes) == 0 {
			b.Fatalf("%s produced no output", id)
		}
	}
}

// --- §2 worked examples ---

func BenchmarkFig01PacketTrace(b *testing.B)    { benchExperiment(b, "fig01") }
func BenchmarkFig02DetourTimeline(b *testing.B) { benchExperiment(b, "fig02") }

// --- §3 requirements ---

func BenchmarkFig04HotLinks(b *testing.B)        { benchExperiment(b, "fig04") }
func BenchmarkFig05NeighborBuffers(b *testing.B) { benchExperiment(b, "fig05") }

// --- §5.2 Click testbed ---

func BenchmarkFig06ClickIncast(b *testing.B) { benchExperiment(b, "fig06") }

// --- §5.4 traffic sweeps ---

func BenchmarkFig07BufferSizes(b *testing.B)     { benchExperiment(b, "fig07") }
func BenchmarkFig08BackgroundSweep(b *testing.B) { benchExperiment(b, "fig08") }
func BenchmarkFig09QueryRateSweep(b *testing.B)  { benchExperiment(b, "fig09") }
func BenchmarkFig10ResponseSizes(b *testing.B)   { benchExperiment(b, "fig10") }
func BenchmarkFig11IncastDegree(b *testing.B)    { benchExperiment(b, "fig11") }

// --- §5.5 network configurations ---

func BenchmarkFig12SmallBuffers(b *testing.B) { benchExperiment(b, "fig12") }
func BenchmarkFig13TTLLimits(b *testing.B)    { benchExperiment(b, "fig13") }
func BenchmarkDBASharedBuffers(b *testing.B)  { benchExperiment(b, "dba") }
func BenchmarkOversubscription(b *testing.B)  { benchExperiment(b, "oversub") }

// --- §5.6 / §5.7 / §5.8 ---

func BenchmarkFairness(b *testing.B)            { benchExperiment(b, "fair") }
func BenchmarkFig14ExtremeQPS(b *testing.B)     { benchExperiment(b, "fig14") }
func BenchmarkFig15LargeResponses(b *testing.B) { benchExperiment(b, "fig15") }
func BenchmarkFig16PFabric(b *testing.B)        { benchExperiment(b, "fig16") }

// --- §7 ablations ---

func BenchmarkPolicyAblation(b *testing.B)   { benchExperiment(b, "policies") }
func BenchmarkTopologyAblation(b *testing.B) { benchExperiment(b, "topos") }
func BenchmarkDupAckAblation(b *testing.B)   { benchExperiment(b, "dupack") }
func BenchmarkPFCComparison(b *testing.B)    { benchExperiment(b, "pfc") }
func BenchmarkCIOQArchitecture(b *testing.B) { benchExperiment(b, "cioq") }
func BenchmarkPacketSpray(b *testing.B)      { benchExperiment(b, "spray") }
func BenchmarkDelayedAck(b *testing.B)       { benchExperiment(b, "delack") }
func BenchmarkMinRTO(b *testing.B)           { benchExperiment(b, "minrto") }

// --- simulator micro/meso benchmarks ---

// BenchmarkSimulatorThroughput measures raw simulation speed on the paper's
// default workload: virtual-seconds simulated per wall-second and events
// processed per second.
func BenchmarkSimulatorThroughput(b *testing.B) {
	b.ReportAllocs()
	var events, pkts uint64
	for i := 0; i < b.N; i++ {
		cfg := dibs.DefaultConfig()
		cfg.Seed = int64(i + 1)
		cfg.Duration = 50 * dibs.Millisecond
		cfg.Drain = 50 * dibs.Millisecond
		n := dibs.Build(cfg)
		r := n.Run()
		events += n.Sched.Executed()
		pkts += r.PoolBorrowed
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	// Packets emitted per iteration (data + ACKs), so cmd/bench can derive
	// allocs per packet.
	b.ReportMetric(float64(pkts)/float64(b.N), "pkts/op")
}

// BenchmarkHybridThroughput measures the hybrid fluid/packet fast path on
// the workload it exists for: a long-flow-dominated run where every flow
// demotes to the rate model after its cwnd stabilizes (DESIGN §9). The
// fluidMB/op metric confirms the rate model carried the bulk of the bytes;
// cmd/bench separately times the identical workload in packet mode and
// gates the wall-clock ratio (hybrid_speedup in BENCH_9.json).
func BenchmarkHybridThroughput(b *testing.B) {
	b.ReportAllocs()
	var events, fluidBytes uint64
	for i := 0; i < b.N; i++ {
		cfg := hybridBenchConfig()
		cfg.Seed = int64(i + 1)
		n := dibs.Build(cfg)
		r := n.Run()
		if r.FluidDemotions == 0 {
			b.Fatal("no long flow demoted to the rate model")
		}
		events += n.Sched.Executed()
		fluidBytes += r.FluidBytes
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	b.ReportMetric(float64(fluidBytes)/float64(b.N)/(1<<20), "fluidMB/op")
}

// hybridBenchConfig is the long-background-flows workload shared by
// BenchmarkHybridThroughput and cmd/bench's hybrid-speedup probe: a K=4
// fat-tree saturated by one long flow per adjacent host pair, NICs marking
// like the fabric so the flows reach the stationary DCTCP steady state the
// rate model is calibrated for.
func hybridBenchConfig() dibs.Config {
	cfg := dibs.DefaultConfig()
	cfg.FatTreeK = 4
	cfg.Query = nil
	cfg.BGInterarrival = 0
	cfg.Long = &dibs.LongFlows{PerPair: 1}
	cfg.HostMarkAtPkts = 20
	cfg.Mode = dibs.ModeHybrid
	cfg.Duration = 300 * dibs.Millisecond
	cfg.Drain = 0
	return cfg
}

// BenchmarkPacketPool measures the steady-state borrow/return cycle of the
// packet arena. It must report 0 allocs/op: any allocation here means the
// pool is not recycling and the per-packet hot path regressed (cmd/bench
// gates on it).
func BenchmarkPacketPool(b *testing.B) {
	pool := packet.NewPool()
	pool.Put(pool.Get()) // warm one node into the freelist
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pool.Get()
		p.Kind = packet.Data
		p.PayloadBytes = packet.DefaultMSS
		pool.Put(p)
	}
}

// BenchmarkNextHops measures the per-hop FIB lookup on a K=8 fat-tree —
// the lookup every switch performs for every packet.
func BenchmarkNextHops(b *testing.B) {
	topo := topology.FatTree(8, topology.DefaultLink, 1)
	hosts := topo.Hosts()
	sws := topo.Switches()
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += len(topo.NextHops(sws[i%len(sws)], hosts[i%len(hosts)]))
	}
	if sink == 0 {
		b.Fatal("no next hops found")
	}
}

// BenchmarkIncastBurst measures one synchronized 100-way incast absorbed by
// DIBS end to end.
func BenchmarkIncastBurst(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := dibs.DefaultConfig()
		cfg.Seed = int64(i + 1)
		cfg.BGInterarrival = 0
		cfg.Query = nil
		cfg.OneShot = &dibs.OneShot{At: dibs.Millisecond, Senders: 100, FlowsPerSender: 1, Bytes: 20_000}
		cfg.Duration = 10 * dibs.Millisecond
		cfg.Drain = 300 * dibs.Millisecond
		r := dibs.Run(cfg)
		if r.QueriesDone != 1 {
			b.Fatal("incast did not complete")
		}
	}
}
