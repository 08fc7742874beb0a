package netsim

import (
	"fmt"
	"testing"
	"time"

	"dibs/internal/eventq"
	"dibs/internal/metrics"
)

// fluidConfig returns a fast K=4 fat-tree config in the given mode with one
// long flow per adjacent host pair (32 flows total).
func fluidConfig(mode SimMode) Config {
	cfg := smallConfig()
	cfg.Mode = mode
	cfg.Long = &LongFlows{PerPair: 1}
	cfg.Duration = 100 * eventq.Millisecond
	cfg.Drain = 0
	return cfg
}

func TestFluidModeLongFlowsProgress(t *testing.T) {
	r := Build(fluidConfig(ModeFluid)).Run()
	if r.FluidBytes == 0 {
		t.Fatal("fluid mode delivered no rate-model bytes")
	}
	if r.FluidDemotions == 0 {
		t.Fatal("fluid mode admitted no flows")
	}
	// Pure fluid mode emits no packets for these flows at all.
	if r.DeliveredData != 0 {
		t.Fatalf("fluid mode delivered %d data packets, want 0", r.DeliveredData)
	}
	// K=4: 16 hosts -> 8 adjacent pairs x 2 directions.
	if len(r.LongGoodputs) != 16 {
		t.Fatalf("long flows = %d, want 16", len(r.LongGoodputs))
	}
	for i, g := range r.LongGoodputs {
		if g <= 0 {
			t.Fatalf("long flow %d made no progress", i)
		}
	}
	// Adjacent-pair long flows contend only at their own NICs (one flow
	// per direction per NIC), so the fair-share solver should give every
	// flow the same rate: Jain ~= 1.
	if r.JainIndex < 0.999 {
		t.Fatalf("Jain index = %.4f, want ~1 under exact fair sharing", r.JainIndex)
	}
}

func TestFluidModeFarCheaperThanPacket(t *testing.T) {
	packet := Build(fluidConfig(ModePacket))
	packet.Run()
	fl := Build(fluidConfig(ModeFluid))
	fl.Run()
	// The rate model replaces per-packet events with coarse ticks; for
	// long flows the event count collapses by orders of magnitude.
	if fl.Executed()*10 > packet.Executed() {
		t.Fatalf("fluid executed %d events vs packet %d, want >=10x fewer",
			fl.Executed(), packet.Executed())
	}

	// Hybrid runs every flow as packets until its window settles, so its
	// arm is a longer run with NICs marking like the fabric: the flows
	// reach the DCTCP steady state the rate model is calibrated for, and
	// the packet-mode warm-up is a small share of 300 ms. The payoff must
	// be real wall time, not only fewer events; timing is best of three
	// and skipped under -short, where the race detector distorts it.
	long := func(mode SimMode) (events uint64, wall time.Duration) {
		cfg := fluidConfig(mode)
		cfg.HostMarkAtPkts = 20
		cfg.Duration = 300 * eventq.Millisecond
		n := Build(cfg)
		start := time.Now()
		n.Run()
		return n.Executed(), time.Since(start)
	}
	pktEvents, pktWall := long(ModePacket)
	hybEvents, hybWall := long(ModeHybrid)
	if hybEvents*5 > pktEvents {
		t.Fatalf("hybrid executed %d events vs packet %d, want >=5x fewer", hybEvents, pktEvents)
	}
	if testing.Short() {
		return
	}
	for i := 1; i < 3; i++ {
		_, p := long(ModePacket)
		_, h := long(ModeHybrid)
		pktWall, hybWall = min(pktWall, p), min(hybWall, h)
	}
	if hybWall*5 > pktWall {
		t.Errorf("hybrid took %v vs packet %v (best of 3), want >=5x less", hybWall, pktWall)
	}
	t.Logf("events: packet %d, hybrid %d; wall: packet %v, hybrid %v", pktEvents, hybEvents, pktWall, hybWall)
}

func TestHybridDemotesStableLongFlows(t *testing.T) {
	r := Build(fluidConfig(ModeHybrid)).Run()
	if r.FluidDemotions == 0 {
		t.Fatal("no long flow demoted to fluid despite stable cwnd")
	}
	if r.FluidBytes == 0 {
		t.Fatal("demoted flows delivered no rate-model bytes")
	}
	// Flows ran as packets first, so packet bytes flowed too.
	if r.DeliveredData == 0 {
		t.Fatal("hybrid run delivered no packet bytes")
	}
	if r.FluidFlows == 0 {
		t.Fatal("no flow still under rate custody at end of run")
	}
	for i, g := range r.LongGoodputs {
		if g <= 0 {
			t.Fatalf("long flow %d made no progress", i)
		}
	}
}

func TestHybridPromoteOnIncast(t *testing.T) {
	cfg := fluidConfig(ModeHybrid)
	// A low stability threshold demotes the long flows within a few
	// milliseconds (their NIC-bloated RTTs make window rollovers slow, so
	// the default 8 would take most of the run). The incast onto the last
	// host then finds them fluid; its edge port crosses the promotion
	// threshold, which must kick the 14<->15 long flow back to packet
	// fidelity.
	cfg.FluidStableWindows = 3
	cfg.OneShot = &OneShot{At: 60 * eventq.Millisecond, Senders: 12, FlowsPerSender: 2, Bytes: 20_000}
	cfg.Duration = 70 * eventq.Millisecond
	cfg.Drain = 200 * eventq.Millisecond
	r := Build(cfg).Run()
	if r.FluidDemotions == 0 {
		t.Fatal("no demotions before the burst")
	}
	if r.FluidPromotions == 0 {
		t.Fatal("incast burst promoted no fluid flow back to packets")
	}
	if r.QueriesDone != 1 {
		t.Fatalf("incast query incomplete: %s", r)
	}
}

func TestHybridByteConservationAcrossBoundary(t *testing.T) {
	cfg := smallConfig()
	cfg.Mode = ModeHybrid
	cfg.Duration = 400 * eventq.Millisecond
	cfg.Drain = 100 * eventq.Millisecond
	n := Build(cfg)
	hosts := n.Topo.Hosts()
	const total = 40 << 20 // 40 MB: demotes after the stable-cwnd threshold
	r := runFlows(n, flowStart{src: hosts[0], dst: hosts[15], bytes: total, class: metrics.ClassLong})
	if !n.shards[0].senders[0].Done() {
		t.Fatalf("flow incomplete: %s", r)
	}
	if r.FluidDemotions != 1 {
		t.Fatalf("demotions = %d, want 1", r.FluidDemotions)
	}
	// Every byte was delivered exactly once: the receiver's cumulative
	// next-expected byte reached exactly the flow size, and the rate-model
	// credits it holds match the engine's delivered total — so the packet
	// phase delivered precisely the rest, with no byte double-counted or
	// lost at the hand-off boundary.
	rcv := n.fluid.cands[0].rcv
	if got := rcv.RcvNxt(); got != total {
		t.Fatalf("receiver advanced to %d bytes, want exactly %d", got, total)
	}
	if rcv.FluidBytes != int64(r.FluidBytes) {
		t.Fatalf("receiver fluid credits %d != engine delivered %d", rcv.FluidBytes, r.FluidBytes)
	}
	if r.FluidBytes == 0 || int64(r.FluidBytes) >= total {
		t.Fatalf("fluid bytes %d: hand-off never happened or packet phase delivered nothing (total %d)",
			r.FluidBytes, total)
	}
	// Packet-pool conservation must survive the hand-off.
	if r.PoolLive != 0 {
		t.Fatalf("pool live = %d after drained run", r.PoolLive)
	}
}

// fluidFingerprint summarizes everything a hybrid run computes.
func fluidFingerprint(r *Results) string {
	return fmt.Sprintf("%v|%d|%d|%d|%d|%d|%d|%.9g|%.9g|%v",
		r.SimTime, r.DeliveredData, r.FluidBytes, r.FluidDemotions, r.FluidPromotions,
		r.TotalDrops, r.Detours, r.QCT99, r.JainIndex, r.LongGoodputs)
}

func TestHybridDeterminism(t *testing.T) {
	mk := func() *Results {
		cfg := fluidConfig(ModeHybrid)
		cfg.Query = incastQuery(200, 8, 20_000)
		cfg.Duration = 60 * eventq.Millisecond
		cfg.Seed = 7
		return Build(cfg).Run()
	}
	a, b := fluidFingerprint(mk()), fluidFingerprint(mk())
	if a != b {
		t.Fatalf("hybrid runs differ:\n%s\n%s", a, b)
	}
	// The long-flows-only run is also pinned absolutely.
	cfg := fluidConfig(ModeHybrid)
	cfg.Seed = 7
	checkGolden(t, []byte(fluidFingerprint(Build(cfg).Run())), goldenHybridRun)
}

// TestHybridFCTAgreement is the fidelity harness: background FCTs under
// hybrid mode must stay within 5% of the packet-mode reference at p50 and
// p99 (ISSUE: fluid-vs-packet divergence bound on bystander traffic).
//
// The workload sits in the regime the standing-queue abstraction models
// (DESIGN §9): NICs mark like the rest of the fabric, so the long flows
// hold a stationary DCTCP steady state at their NIC bottlenecks, and
// FluidMinBytes pins custody to the long flows alone — background traffic
// keeps packet fidelity in both runs and measures only how well the fold
// reproduces the long flows' footprint.
func TestHybridFCTAgreement(t *testing.T) {
	run := func(mode SimMode) *Results {
		cfg := smallConfig()
		cfg.Mode = mode
		cfg.HostMarkAtPkts = 20
		cfg.Long = &LongFlows{PerPair: 1}
		cfg.BGInterarrival = 20 * eventq.Millisecond
		cfg.FluidMinBytes = 1 << 32
		cfg.Duration = 200 * eventq.Millisecond
		cfg.Drain = 200 * eventq.Millisecond
		cfg.Seed = 11
		return Build(cfg).Run()
	}
	ref := run(ModePacket)
	hyb := run(ModeHybrid)
	if hyb.FluidDemotions == 0 {
		t.Fatal("hybrid run never engaged the rate model; agreement test is vacuous")
	}
	if ref.BGFlowsDone != hyb.BGFlowsDone {
		t.Fatalf("bg flows done: packet %d vs hybrid %d", ref.BGFlowsDone, hyb.BGFlowsDone)
	}
	within := func(name string, a, b float64) {
		t.Helper()
		if a == 0 {
			t.Fatalf("%s: packet reference is zero", name)
		}
		if d := absf(a-b) / a; d > 0.05 {
			t.Errorf("%s diverges %.1f%%: packet %.4fms vs hybrid %.4fms", name, d*100, a, b)
		}
	}
	within("short bg FCT p50", ref.ShortFCT50, hyb.ShortFCT50)
	within("short bg FCT p99", ref.ShortFCT99, hyb.ShortFCT99)
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
