package netsim

import (
	"strings"
	"testing"

	"dibs/internal/eventq"
	"dibs/internal/switching"
)

func TestNetworkDropsExcludesEvictions(t *testing.T) {
	r := &Results{}
	r.Drops[switching.DropOverflow] = 10
	r.Drops[switching.DropEvicted] = 4
	r.TotalDrops = 14
	if r.NetworkDrops() != 10 {
		t.Fatalf("NetworkDrops = %d", r.NetworkDrops())
	}
}

func TestResultsStringSections(t *testing.T) {
	cfg := smallConfig()
	cfg.Long = &LongFlows{PerPair: 1}
	cfg.Query = incastQuery(200, 6, 10_000)
	cfg.BGInterarrival = 20 * eventq.Millisecond
	cfg.Duration = 40 * eventq.Millisecond
	cfg.Drain = 200 * eventq.Millisecond
	r := Build(cfg).Run()
	s := r.String()
	for _, want := range []string{"queries", "bg flows", "drops", "Jain"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() missing %q: %s", want, s)
		}
	}
}

func TestResultsSenderStatsAggregated(t *testing.T) {
	cfg := smallConfig()
	cfg.DIBS = false
	cfg.BufferPkts = 20
	cfg.OneShot = &OneShot{At: eventq.Millisecond, Senders: 12, FlowsPerSender: 2, Bytes: 20_000}
	cfg.Duration = 30 * eventq.Millisecond
	cfg.Drain = 500 * eventq.Millisecond
	r := Build(cfg).Run()
	// Tiny droptail buffers under incast force loss recovery.
	if r.Timeouts == 0 || r.Retransmits == 0 {
		t.Fatalf("expected recovery activity: %d timeouts %d retransmits", r.Timeouts, r.Retransmits)
	}
}
