package netsim

import (
	"fmt"
	"sort"
	"strings"

	"dibs/internal/eventq"
	"dibs/internal/metrics"
	"dibs/internal/stats"
	"dibs/internal/switching"
	"dibs/internal/transport"
)

// Results summarizes one run. Times are milliseconds, matching the paper's
// axes. Percentiles are NaN when no sample exists.
type Results struct {
	Cfg     Config
	SimTime eventq.Time

	// Query traffic (paper metric: 99th percentile QCT).
	QueriesStarted, QueriesDone int
	QCT50, QCT99, QCTMax        float64

	// Background traffic (paper metric: 99th percentile FCT of 1-10KB
	// flows).
	BGFlowsDone            int
	ShortFCT50, ShortFCT99 float64
	BGFCT99                float64

	// Loss and detouring.
	Drops         [switching.NumDropReasons]uint64
	TotalDrops    uint64
	Detours       uint64
	DetouredFrac  float64
	MaxDetours    int
	DetourP99     float64
	HostNICDrops  uint64
	DeliveredData uint64

	// Sender-side recovery activity, aggregated over all flows.
	Timeouts, Retransmits, FastRecovers int

	// PFCPauses counts Ethernet flow-control PAUSE frames (PFC runs).
	PFCPauses uint64

	// Fairness (§5.6): per-long-flow goodput in bits/s and Jain's index.
	LongGoodputs []float64
	JainIndex    float64

	// Hybrid/fluid mode (DESIGN §9): bytes delivered by the rate model
	// and the fidelity-boundary crossing counts. All zero in packet mode.
	FluidBytes      uint64
	FluidDemotions  uint64
	FluidPromotions uint64
	// FluidFlows is the number of flows still under rate custody at the
	// end of the run (unfinished long flows).
	FluidFlows int

	// Packet-pool accounting (DESIGN §9 memory model): every packet the
	// transports borrow must be returned on a terminal path. PoolLive is
	// borrowed − returned at the end of the run — packets still buffered
	// in queues or in flight when the run was cut off (0 for drained runs).
	PoolBorrowed uint64
	PoolReturned uint64
	PoolLive     int

	// Collector retains the full samples for CDF-level analysis.
	Collector *metrics.Collector
}

func (n *Network) results(end eventq.Time) *Results {
	// Fold the other shards' collectors into shard 0's: the aggregates and
	// instruments come out byte-identical to what a 1-shard run
	// accumulates directly (see metrics.MergeFrom).
	c := n.Collector
	for _, sh := range n.shards[1:] {
		c.MergeFrom(sh.coll)
	}
	r := &Results{
		Cfg:            n.Cfg,
		SimTime:        end,
		QueriesStarted: c.StartedQueries(),
		QueriesDone:    c.CompletedQueries(),
		QCT50:          c.QCTs.Percentile(50),
		QCT99:          c.QCTs.Percentile(99),
		QCTMax:         c.QCTs.Max(),
		BGFlowsDone:    c.CompletedFlows(metrics.ClassBackground),
		ShortFCT50:     c.ShortBGFCTs.Percentile(50),
		ShortFCT99:     c.ShortBGFCTs.Percentile(99),
		BGFCT99:        c.BGFCTs.Percentile(99),
		Drops:          c.Drops,
		TotalDrops:     c.TotalDrops(),
		Detours:        c.Detours,
		DetouredFrac:   c.DetouredFraction(),
		MaxDetours:     c.MaxDetours,
		DetourP99:      c.DetourCounts.Percentile(99),
		DeliveredData:  c.DeliveredData,
		Collector:      c,
	}
	for _, h := range n.Topo.Hosts() {
		r.HostNICDrops += n.HostsByID[h].NICDrops
	}
	var longRx []*transport.Receiver
	var emitted, adopted uint64
	for _, sh := range n.shards {
		for _, s := range sh.senders {
			r.Timeouts += s.Timeouts
			r.Retransmits += s.Retransmits
			r.FastRecovers += s.FastRecovers
		}
		longRx = append(longRx, sh.longRx...)
		// Cross-shard hops re-home packets: a Free into the source arena
		// at emission plus a Get from the destination arena at delivery.
		// Cancelling those out of the totals leaves exactly the borrows
		// and returns a 1-shard run would record — including a packet
		// caught mid-boundary at the end of the run, whose emission-side
		// return is cancelled but whose adoption never happened, so it
		// still counts as live.
		r.PoolBorrowed += sh.pool.Borrowed()
		r.PoolReturned += sh.pool.Returned()
		emitted += sh.emitted
		adopted += sh.adopted
	}
	r.PoolBorrowed -= adopted
	r.PoolReturned -= emitted
	r.PoolLive = int(r.PoolBorrowed - r.PoolReturned)
	r.PFCPauses = n.PFCPauses()
	if n.fluid != nil {
		r.FluidBytes = n.fluid.eng.DeliveredBytes
		r.FluidDemotions = n.fluid.demotions
		r.FluidPromotions = n.fluid.eng.Promotions
		for _, c := range n.fluid.cands {
			if c.state == candFluid {
				r.FluidFlows++
			}
		}
	}
	if len(longRx) > 0 {
		// Flow-ID order, so the goodput vector is identical for every
		// shard count (shard-local append order is creation order, which
		// is ID order within a shard but interleaves across shards).
		sort.Slice(longRx, func(i, j int) bool { return longRx[i].Flow < longRx[j].Flow })
		secs := end.Seconds()
		for _, rx := range longRx {
			r.LongGoodputs = append(r.LongGoodputs, float64(rx.RcvNxt())*8/secs)
		}
		r.JainIndex = stats.Jain(r.LongGoodputs)
	}
	return r
}

// NetworkDrops returns drops excluding pFabric evictions (which are part of
// that design's normal operation).
func (r *Results) NetworkDrops() uint64 {
	return r.TotalDrops - r.Drops[switching.DropEvicted]
}

// String renders a compact human-readable summary.
func (r *Results) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim %v: ", r.SimTime)
	if r.QueriesStarted > 0 {
		fmt.Fprintf(&b, "queries %d/%d done, QCT p50/p99 = %.2f/%.2f ms; ",
			r.QueriesDone, r.QueriesStarted, r.QCT50, r.QCT99)
	}
	if r.BGFlowsDone > 0 {
		fmt.Fprintf(&b, "bg flows %d, short FCT p99 = %.2f ms; ", r.BGFlowsDone, r.ShortFCT99)
	}
	fmt.Fprintf(&b, "drops %d (overflow %d, no-detour %d, ttl %d, evicted %d), detours %d",
		r.TotalDrops, r.Drops[switching.DropOverflow], r.Drops[switching.DropNoDetour],
		r.Drops[switching.DropTTL], r.Drops[switching.DropEvicted], r.Detours)
	if len(r.LongGoodputs) > 0 {
		fmt.Fprintf(&b, "; Jain %.3f over %d long flows", r.JainIndex, len(r.LongGoodputs))
	}
	return b.String()
}
