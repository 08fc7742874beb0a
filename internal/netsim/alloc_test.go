package netsim

import (
	"runtime"
	"testing"

	"dibs/internal/eventq"
	"dibs/internal/metrics"
)

// TestAllocationCeilings pins the absolute allocation budget of whole runs,
// counted over Build + Run like TestShardHandOffDoesNotAllocatePerPacket.
// Packets are pooled, so on the paper's default workload allocations follow
// flows and set-up, not packets: a pool that stopped recycling, or a
// per-packet closure, puts the first row above one allocation per packet.
// The one-shot 100-way incast is the cost of a single query absorbed by
// DIBS end to end. The storm is the benchmark's incast_storm shape, short:
// a flow costs its sender's RTO binding and, once reordered, its receiver's
// first island (DESIGN §9 "Per-flow state"), so a closure per flow open or
// completion puts it well past its ceiling. Both ceilings are the last
// recorded value plus 20%: 3,404 mallocs in the worst one-shot run, and
// 2.88 mallocs per flow in the storm.
func TestAllocationCeilings(t *testing.T) {
	if testing.Short() {
		t.Skip("nine whole runs")
	}
	for _, tc := range []struct {
		name string
		cfg  func() Config
		// Each row sets one ceiling, over seeds 1-3.
		maxPerPkt  float64 // total mallocs / total Results.PoolBorrowed
		maxPerRun  uint64  // mallocs of the worst run
		maxPerFlow float64 // total mallocs / total flows started
	}{
		{
			name: "default workload",
			cfg: func() Config {
				cfg := DefaultConfig()
				cfg.Duration = 50 * eventq.Millisecond
				cfg.Drain = 50 * eventq.Millisecond
				return cfg
			},
			maxPerPkt: 0.9,
		},
		{
			name: "one-shot 100-way incast",
			cfg: func() Config {
				cfg := DefaultConfig()
				cfg.BGInterarrival = 0
				cfg.Query = nil
				cfg.OneShot = &OneShot{At: eventq.Millisecond, Senders: 100, FlowsPerSender: 1, Bytes: 20_000}
				cfg.Duration = 10 * eventq.Millisecond
				cfg.Drain = 300 * eventq.Millisecond
				return cfg
			},
			maxPerRun: 4085,
		},
		{
			name: "incast storm",
			cfg: func() Config {
				cfg := DefaultConfig()
				cfg.BGInterarrival = 0
				cfg.Query.QPS = 2000
				cfg.Duration = 100 * eventq.Millisecond
				cfg.Drain = 100 * eventq.Millisecond
				return cfg
			},
			maxPerFlow: 3.45,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mallocs, pkts, flows, worst uint64
			for seed := int64(1); seed <= 3; seed++ {
				cfg := tc.cfg()
				cfg.Seed = seed
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				r := Build(cfg).Run()
				runtime.ReadMemStats(&after)
				m := after.Mallocs - before.Mallocs
				if r.QueriesDone == 0 {
					t.Fatalf("seed %d: no query completed: %s", seed, r)
				}
				nFlows := 0
				r.Collector.EachFlow(func(*metrics.FlowInfo) { nFlows++ })
				t.Logf("seed %d: %d mallocs, %d packets, %d flows", seed, m, r.PoolBorrowed, nFlows)
				mallocs += m
				pkts += r.PoolBorrowed
				flows += uint64(nFlows)
				worst = max(worst, m)
			}
			if perPkt := float64(mallocs) / float64(pkts); tc.maxPerPkt > 0 && perPkt > tc.maxPerPkt {
				t.Errorf("%d mallocs for %d packets over seeds 1-3: %.3f per packet, ceiling %.2f",
					mallocs, pkts, perPkt, tc.maxPerPkt)
			}
			if tc.maxPerRun > 0 && worst > tc.maxPerRun {
				t.Errorf("%d mallocs in one run, ceiling %d", worst, tc.maxPerRun)
			}
			if perFlow := float64(mallocs) / float64(flows); tc.maxPerFlow > 0 && perFlow > tc.maxPerFlow {
				t.Errorf("%d mallocs for %d flows over seeds 1-3: %.2f per flow, ceiling %.2f",
					mallocs, flows, perFlow, tc.maxPerFlow)
			}
		})
	}
}

// TestEventsPerPacketCeiling pins the scheduler work a packet costs on the
// default workload: executed events per pooled packet, seed by seed. Each
// hop is one event — the wire delivery, which also clocks the transmitter
// (switching.OutPort) — so the default workload sits near 6-7; a
// serialization completion scheduled as an event of its own again would
// put it near 13.
func TestEventsPerPacketCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("five whole runs")
	}
	const ceiling = 8.0
	for seed := int64(1); seed <= 5; seed++ {
		cfg := DefaultConfig()
		cfg.Duration = 50 * eventq.Millisecond
		cfg.Drain = 50 * eventq.Millisecond
		cfg.Seed = seed
		n := Build(cfg)
		r := n.Run()
		perPkt := float64(n.Executed()) / float64(r.PoolBorrowed)
		t.Logf("seed %d: %d events, %d packets: %.2f per packet", seed, n.Executed(), r.PoolBorrowed, perPkt)
		if perPkt > ceiling {
			t.Errorf("seed %d: %.2f events per packet, ceiling %.0f", seed, perPkt, ceiling)
		}
	}
}
