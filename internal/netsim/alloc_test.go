package netsim

import (
	"runtime"
	"testing"

	"dibs/internal/eventq"
)

// TestAllocationCeilings pins the absolute allocation budget of whole runs,
// counted over Build + Run like TestShardHandOffDoesNotAllocatePerPacket.
// Packets are pooled, so on the paper's default workload allocations follow
// flows and set-up, not packets: a pool that stopped recycling, or a
// per-packet closure, puts the first row above one allocation per packet.
// The one-shot 100-way incast is the cost of a single query absorbed by
// DIBS end to end; its ceiling is the last recorded 6,013 mallocs plus 20%.
func TestAllocationCeilings(t *testing.T) {
	if testing.Short() {
		t.Skip("six whole runs")
	}
	for _, tc := range []struct {
		name string
		cfg  func() Config
		// Each row sets one ceiling, over seeds 1-3.
		maxPerPkt float64 // total mallocs / total Results.PoolBorrowed
		maxPerRun uint64  // mallocs of the worst run
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
			maxPerRun: 7200,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mallocs, pkts, worst uint64
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
				t.Logf("seed %d: %d mallocs, %d packets", seed, m, r.PoolBorrowed)
				mallocs += m
				pkts += r.PoolBorrowed
				worst = max(worst, m)
			}
			if perPkt := float64(mallocs) / float64(pkts); tc.maxPerPkt > 0 && perPkt > tc.maxPerPkt {
				t.Errorf("%d mallocs for %d packets over seeds 1-3: %.3f per packet, ceiling %.2f",
					mallocs, pkts, perPkt, tc.maxPerPkt)
			}
			if tc.maxPerRun > 0 && worst > tc.maxPerRun {
				t.Errorf("%d mallocs in one run, ceiling %d", worst, tc.maxPerRun)
			}
		})
	}
}
