package netsim

import (
	"testing"
	"testing/quick"

	"dibs/internal/eventq"
	"dibs/internal/metrics"
	"dibs/internal/quicktest"
	"dibs/internal/switching"
	"dibs/internal/transport"
	"dibs/internal/workload"
)

// queuedPackets counts packets still sitting in switch buffers (output
// queues and, for CIOQ, VOQs).
func queuedPackets(n *Network) int {
	total := 0
	for _, sid := range n.Topo.Switches() {
		total += n.Switches[sid].QueuedPackets()
	}
	return total
}

// poolConserved checks the packet-pool conservation invariant after a fully
// drained run: every borrowed packet was returned on a terminal path
// (borrowed == returned). A leak names the offending packets — flow, kind,
// seq — via the pool's identity tracking; a double return or use of a
// recycled node is caught earlier by the pool itself, which panics with the
// packet and its generation counter.
func poolConserved(t *testing.T, n *Network) bool {
	t.Helper()
	if n.Pool.Live() == 0 {
		return true
	}
	t.Logf("pool: borrowed %d, returned %d, live %d", n.Pool.Borrowed(), n.Pool.Returned(), n.Pool.Live())
	for i, p := range n.Pool.Leaked() {
		if i >= 10 {
			t.Logf("... and %d more", n.Pool.Live()-10)
			break
		}
		t.Logf("leaked: %v (gen %d)", p, p.Gen())
	}
	return false
}

// terminalsAccountForReturns checks that every pool return happened on a
// known terminal path: delivery (data or ACK), a switch drop, or a NIC
// refusal. Anything else would mean a packet was silently destroyed.
func terminalsAccountForReturns(t *testing.T, r *Results) bool {
	t.Helper()
	accounted := uint64(r.DeliveredData) + r.Collector.DeliveredAcks +
		r.TotalDrops + r.HostNICDrops
	if r.PoolReturned != accounted {
		t.Logf("pool returned %d but terminal paths account for %d", r.PoolReturned, accounted)
		return false
	}
	return true
}

// Property: after a fully drained run, no packets remain queued anywhere,
// every started query completes, and the DIBS invariant holds: zero
// overflow drops.
func TestQuickDrainedRunConservation(t *testing.T) {
	f := func(seedRaw uint16, degRaw, respRaw uint8) bool {
		cfg := DefaultConfig()
		cfg.FatTreeK = 4
		cfg.Seed = int64(seedRaw) + 1
		cfg.Duration = 30 * eventq.Millisecond
		cfg.Drain = 700 * eventq.Millisecond
		cfg.BGInterarrival = 40 * eventq.Millisecond
		cfg.Query = &workload.QueryConfig{
			QPS:           400,
			Degree:        int(degRaw%12) + 2,
			ResponseBytes: int64(respRaw%30)*1000 + 2000,
		}
		n := Build(cfg)
		r := n.Run()
		if queuedPackets(n) != 0 {
			t.Logf("seed %d: %d packets still queued", cfg.Seed, queuedPackets(n))
			return false
		}
		if r.QueriesDone != r.QueriesStarted {
			t.Logf("seed %d: %d/%d queries", cfg.Seed, r.QueriesDone, r.QueriesStarted)
			return false
		}
		if r.Drops[0] != 0 { // overflow drops never happen under DIBS
			t.Logf("seed %d: overflow drops %d", cfg.Seed, r.Drops[0])
			return false
		}
		if !poolConserved(t, n) {
			t.Logf("seed %d: packet pool leaked", cfg.Seed)
			return false
		}
		// Every endpoint cleaned up: no leaked flows on any host.
		for _, h := range n.Topo.Hosts() {
			if n.HostsByID[h].ActiveFlows() != 0 {
				// Long-running background flows may legitimately still be
				// in flight; only incast flows are guaranteed done. Check
				// via collector instead.
				break
			}
		}
		return true
	}
	if err := quick.Check(f, quicktest.Config(t, 12)); err != nil {
		t.Fatal(err)
	}
}

// Property: delivered + dropped + still-queued + in-host-NICs accounts for
// every switch transmission: no packet is silently created or destroyed.
func TestQuickNoPacketLeaks(t *testing.T) {
	f := func(seedRaw uint16) bool {
		cfg := DefaultConfig()
		cfg.FatTreeK = 4
		cfg.Seed = int64(seedRaw) + 1
		cfg.BGInterarrival = 0
		cfg.Query = nil
		cfg.OneShot = &OneShot{
			At:             eventq.Millisecond,
			Senders:        10,
			FlowsPerSender: 2,
			Bytes:          20_000,
		}
		cfg.Duration = 20 * eventq.Millisecond
		cfg.Drain = 600 * eventq.Millisecond
		n := Build(cfg)
		r := n.Run()
		if r.QueriesDone != 1 {
			return false
		}
		// After full drain: nothing queued; every data packet the hosts
		// received was counted.
		if queuedPackets(n) != 0 {
			return false
		}
		// 20 flows x 20000B = 400000B; at least ceil/MSS = 280 data
		// packets must have been delivered (more with spurious rexmits).
		if r.DeliveredData < 280 {
			t.Logf("delivered only %d data packets", r.DeliveredData)
			return false
		}
		if !poolConserved(t, n) {
			return false
		}
		return terminalsAccountForReturns(t, r)
	}
	if err := quick.Check(f, quicktest.Config(t, 15)); err != nil {
		t.Fatal(err)
	}
}

// Property: with DIBS disabled and infinite buffers, there are never drops
// nor detours, regardless of workload intensity.
func TestQuickInfiniteBufferNeverDrops(t *testing.T) {
	f := func(seedRaw uint16, degRaw uint8) bool {
		cfg := DefaultConfig()
		cfg.FatTreeK = 4
		cfg.Buffer = BufferInfinite
		cfg.DIBS = false
		cfg.Seed = int64(seedRaw) + 1
		cfg.Duration = 30 * eventq.Millisecond
		cfg.Drain = 500 * eventq.Millisecond
		cfg.BGInterarrival = 0
		cfg.Query = &workload.QueryConfig{
			QPS:           500,
			Degree:        int(degRaw%14) + 2,
			ResponseBytes: 20_000,
		}
		n := Build(cfg)
		r := n.Run()
		return r.TotalDrops == 0 && r.Detours == 0 && poolConserved(t, n)
	}
	if err := quick.Check(f, quicktest.Config(t, 10)); err != nil {
		t.Fatal(err)
	}
}

// TestDropPathPoolConservation drives every switch drop path — overflow,
// no-detour + TTL expiry, pFabric eviction, CIOQ ingress overflow — and
// checks the pool identity there: each dropped packet went back to the pool
// exactly once, and the drop hook saw it while it was still live (the pool
// poisons Flow on return under StrictFree, so a hook fired after the Free
// attributes the drop to no class). The other conservation tests run
// configurations whose switches never drop.
func TestDropPathPoolConservation(t *testing.T) {
	for _, row := range []struct {
		name    string
		reasons []switching.DropReason // each must have fired
		mk      func(c *Config)
	}{
		{"droptail-overflow", []switching.DropReason{switching.DropOverflow},
			func(c *Config) { c.DIBS = false; c.BufferPkts = 10 }},
		{"dibs-nodetour-ttl", []switching.DropReason{switching.DropNoDetour, switching.DropTTL},
			func(c *Config) { c.TTL = 8; c.BufferPkts = 5 }},
		{"pfabric-evicted", []switching.DropReason{switching.DropEvicted}, func(c *Config) {
			c.DIBS = false
			c.Buffer = BufferPFabric
			c.BufferPkts = 8
			c.MarkAtPkts = 0
			c.Transport = transport.PFabric
		}},
		{"cioq-ingress", []switching.DropReason{switching.DropOverflow},
			func(c *Config) { c.Arch = ArchCIOQ; c.DIBS = false; c.BufferPkts = 10; c.MarkAtPkts = 0 }},
	} {
		t.Run(row.name, func(t *testing.T) {
			cfg := smallConfig()
			cfg.Query = incastQuery(1500, 12, 20_000)
			cfg.Duration = 30 * eventq.Millisecond
			cfg.Drain = 2 * eventq.Second
			row.mk(&cfg)
			n := Build(cfg)
			r := n.Run()
			if r.TotalDrops == 0 {
				t.Fatalf("no drops; the row does not exercise a drop path: %s", r)
			}
			for _, reason := range row.reasons {
				if r.Drops[reason] == 0 {
					t.Fatalf("no %v drops: %v", reason, r.Drops)
				}
			}
			if !poolConserved(t, n) {
				t.Fatalf("packet pool leaked after %d drops", r.TotalDrops)
			}
			if !terminalsAccountForReturns(t, r) {
				t.Fatal("a pool return happened off the terminal paths")
			}
			if r.Collector.DropsByClass[metrics.ClassQuery] == 0 {
				t.Fatalf("%d drops but none attributed to the query class %v: OnDrop read a freed packet",
					r.TotalDrops, r.Collector.DropsByClass)
			}
		})
	}
}

// TestCollectorFlowAccounting cross-checks collector sample counts against
// flow records after a mixed run.
func TestCollectorFlowAccounting(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FatTreeK = 4
	cfg.Duration = 50 * eventq.Millisecond
	cfg.Drain = 500 * eventq.Millisecond
	cfg.BGInterarrival = 20 * eventq.Millisecond
	cfg.Query = &workload.QueryConfig{QPS: 300, Degree: 6, ResponseBytes: 10_000}
	n := Build(cfg)
	r := n.Run()

	doneBG, doneQuery := 0, 0
	r.Collector.EachFlow(func(f *metrics.FlowInfo) {
		if !f.Done() {
			return
		}
		switch f.Class {
		case metrics.ClassBackground:
			doneBG++
		case metrics.ClassQuery:
			doneQuery++
		}
	})
	if doneBG != r.BGFlowsDone {
		t.Fatalf("BG done: iterator %d vs results %d", doneBG, r.BGFlowsDone)
	}
	if r.Collector.BGFCTs.N() != doneBG {
		t.Fatalf("BG FCT samples %d vs flows %d", r.Collector.BGFCTs.N(), doneBG)
	}
	if doneQuery == 0 || r.QueriesDone == 0 {
		t.Fatal("no query flows completed")
	}
	if !poolConserved(t, n) {
		t.Fatal("packet pool leaked")
	}
}
