package netsim

import (
	"testing"

	"dibs/internal/eventq"
	"dibs/internal/metrics"
	"dibs/internal/model"
)

// TestIncastMatchesAnalyticBound checks the simulator against the
// closed-form ideal: with infinite buffers, a one-shot incast must complete
// no faster than the last-hop serialization bound and within a modest
// factor above it.
func TestIncastMatchesAnalyticBound(t *testing.T) {
	cfg := smallConfig()
	cfg.Buffer = BufferInfinite
	cfg.DIBS = false
	cfg.ForwardJitter = 0
	const senders, per = 12, 2
	const bytes = 20_000
	cfg.OneShot = &OneShot{At: eventq.Millisecond, Senders: senders, FlowsPerSender: per, Bytes: bytes}
	cfg.Duration = 10 * eventq.Millisecond
	cfg.Drain = 500 * eventq.Millisecond
	r := Build(cfg).Run()
	if r.QueriesDone != 1 {
		t.Fatalf("incast incomplete: %s", r)
	}
	baseRTT := model.BaseRTT(6, cfg.LinkRate, cfg.LinkDelay, model.DefaultWire)
	ideal := model.IncastIdealQCT(senders*per, bytes, cfg.LinkRate, baseRTT, model.DefaultWire)
	got := eventq.Time(r.QCT99 * float64(eventq.Millisecond))
	if float64(got) < 0.9*float64(ideal) {
		t.Fatalf("simulated QCT %v beats the physical estimate %v by >10%% — simulator bug", got, ideal)
	}
	if got > 2*ideal {
		t.Fatalf("simulated QCT %v more than 2x the ideal %v — unexplained stall", got, ideal)
	}
	// DIBS must land in the same corridor (near-optimal claim, §5.2).
	cfg.Buffer = BufferDropTail
	cfg.DIBS = true
	r2 := Build(cfg).Run()
	got2 := eventq.Time(r2.QCT99 * float64(eventq.Millisecond))
	if float64(got2) < 0.9*float64(ideal) || got2 > 2*ideal {
		t.Fatalf("DIBS QCT %v outside [0.9x, 2x] of %v", got2, ideal)
	}
}

// TestSingleFlowMatchesSlowStartModel checks an isolated transfer against
// the slow-start completion-time model.
func TestSingleFlowMatchesSlowStartModel(t *testing.T) {
	cfg := smallConfig()
	cfg.ForwardJitter = 0
	cfg.Duration = 10 * eventq.Millisecond
	cfg.Drain = eventq.Second
	n := Build(cfg)
	hosts := n.Topo.Hosts()
	src, dst := hosts[0], hosts[len(hosts)-1] // cross-pod: 6 hops
	const bytes = 500_000
	r := runFlows(n, flowStart{src: src, dst: dst, bytes: bytes, class: metrics.ClassBackground})
	f := r.Collector.Flow(0)
	if f == nil || !f.Done() {
		t.Fatal("flow did not complete")
	}
	rtt := model.BaseRTT(6, cfg.LinkRate, cfg.LinkDelay, model.DefaultWire)
	ideal := model.SlowStartIdealFCT(bytes, cfg.LinkRate, rtt, n.tc.InitCwnd, model.DefaultWire)
	got := f.FCT()
	if float64(got) < 0.9*float64(ideal) {
		t.Fatalf("FCT %v beats the slow-start estimate %v by >10%%", got, ideal)
	}
	if got > 3*ideal {
		t.Fatalf("FCT %v more than 3x ideal %v", got, ideal)
	}
}

// TestLongFlowReachesLineRate checks that a single unimpeded long flow
// saturates its 1Gbps path (goodput > 90% of fair share).
func TestLongFlowReachesLineRate(t *testing.T) {
	cfg := smallConfig()
	cfg.Duration = 100 * eventq.Millisecond
	cfg.Drain = 0
	n := Build(cfg)
	hosts := n.Topo.Hosts()
	r := runFlows(n, flowStart{src: hosts[0], dst: hosts[15], bytes: 1 << 40, class: metrics.ClassLong})
	if len(r.LongGoodputs) != 1 {
		t.Fatal("missing goodput sample")
	}
	share := model.FairShare(cfg.LinkRate, 1)
	if r.LongGoodputs[0] < 0.9*share {
		t.Fatalf("goodput %.0f < 90%% of line rate %.0f", r.LongGoodputs[0], share)
	}
	// Payload goodput cannot exceed line rate.
	if r.LongGoodputs[0] > share {
		t.Fatalf("goodput %.0f exceeds line rate", r.LongGoodputs[0])
	}
}

// TestTwoFlowsSplitFairShare checks the congestion-controlled equilibrium
// against the fair-share model.
func TestTwoFlowsSplitFairShare(t *testing.T) {
	cfg := smallConfig()
	cfg.Duration = 150 * eventq.Millisecond
	cfg.Drain = 0
	n := Build(cfg)
	hosts := n.Topo.Hosts()
	// Two flows into the same destination host: its access link is the
	// bottleneck.
	r := runFlows(n,
		flowStart{src: hosts[0], dst: hosts[15], bytes: 1 << 40, class: metrics.ClassLong},
		flowStart{src: hosts[1], dst: hosts[15], bytes: 1 << 40, class: metrics.ClassLong})
	share := model.FairShare(cfg.LinkRate, 2)
	for i, g := range r.LongGoodputs {
		if g < 0.6*share || g > 1.4*share {
			t.Fatalf("flow %d goodput %.0f outside 60-140%% of fair share %.0f (jain %.3f)",
				i, g, share, r.JainIndex)
		}
	}
}
