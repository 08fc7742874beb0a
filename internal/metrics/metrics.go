// Package metrics collects the measurements the paper's evaluation reports:
// query completion times (QCT), flow completion times (FCT) by traffic
// class, drop/detour/mark counters, and — from the optional instruments —
// the event log behind the detour timeline (Figure 2a), buffer occupancy
// snapshots (Figures 2b and 5), per-link utilization windows (Figure 4),
// and the most-detoured traced packet's path (Figure 1).
package metrics

import (
	"fmt"
	"sort"

	"dibs/internal/eventq"
	"dibs/internal/packet"
	"dibs/internal/stats"
	"dibs/internal/switching"
	"dibs/internal/trace"
)

// FlowClass labels the paper's traffic classes.
type FlowClass uint8

const (
	// ClassQuery is partition-aggregate (incast) response traffic.
	ClassQuery FlowClass = iota
	// ClassBackground is the DCTCP-paper background workload.
	ClassBackground
	// ClassLong is a long-lived flow (fairness experiment, §5.6).
	ClassLong
	numClasses
)

func (c FlowClass) String() string {
	switch c {
	case ClassQuery:
		return "query"
	case ClassBackground:
		return "background"
	case ClassLong:
		return "long"
	default:
		return "unknown"
	}
}

// FlowInfo is the collector's record of one flow.
type FlowInfo struct {
	ID      packet.FlowID
	Class   FlowClass
	Bytes   int64
	QueryID int // -1 for non-query flows
	Start   eventq.Time
	End     eventq.Time // 0 while in flight

	known bool // registered; false in a gap of the collector's table
}

// Done reports whether the flow completed.
func (f *FlowInfo) Done() bool { return f.End > 0 }

// FCT returns the flow completion time.
func (f *FlowInfo) FCT() eventq.Time { return f.End - f.Start }

type queryState struct {
	remaining int
	start     eventq.Time
	end       eventq.Time
}

// Collector aggregates all measurements of one simulation run. Wire its
// Hooks into every switch and call the flow-lifecycle methods from the
// workload/host layer.
type Collector struct {
	sched *eventq.Scheduler

	// flows is indexed by FlowID, which runs dense from 0 (see
	// FlowStartedAt).
	flows   []FlowInfo
	queries map[int]*queryState

	// QCTs holds completed query completion times in milliseconds.
	QCTs stats.Sample
	// ShortBGFCTs holds FCTs (ms) of short background flows (1-10KB),
	// the paper's collateral-damage metric.
	ShortBGFCTs stats.Sample
	// BGFCTs holds FCTs (ms) of all completed background flows.
	BGFCTs stats.Sample

	// Drops counts packet drops by reason, across all switches.
	Drops [switching.NumDropReasons]uint64
	// DropsByClass counts dropped data packets per traffic class.
	DropsByClass [numClasses]uint64
	// Detours counts detour decisions; DetoursByClass splits them per
	// class (§5.4.1: >90% of detoured packets belong to query traffic).
	Detours        uint64
	DetoursByClass [numClasses]uint64

	// MaxDetours tracks the worst detour count over delivered data
	// packets.
	MaxDetours int
	// BestTrace is the path of the most-detoured traced data packet
	// delivered (Figure 1), BestDetours its own detour count (first
	// delivered on ties; only a detoured packet counts). bestAt and
	// bestPri are its delivery event's (time, same-instant key).
	BestTrace   []packet.TraceHop
	BestDetours int
	bestAt      eventq.Time
	bestPri     int64
	// DetourCounts counts delivered detoured packets by their detour
	// count.
	DetourCounts stats.Histogram

	// DeliveredData counts data packets delivered to hosts; DeliveredAcks
	// counts delivered ACKs. Together with the drop counters they account
	// for every packet the pool hands out (conservation checks).
	DeliveredData uint64
	DeliveredAcks uint64

	// The optional instruments, nil unless enabled: the event log and the
	// switch-port monitors (see PortRef).
	Events *trace.Recorder
	Util   *LinkUtilMonitor
	Buf    *BufferSampler
}

// NewCollector creates a collector bound to the scheduler's clock.
func NewCollector(sched *eventq.Scheduler) *Collector {
	return &Collector{
		sched:   sched,
		queries: make(map[int]*queryState),
	}
}

// Hooks returns switch hooks that feed this collector.
func (c *Collector) Hooks() *switching.Hooks {
	return &switching.Hooks{
		OnDrop:   c.onDrop,
		OnDetour: c.onDetour,
	}
}

func (c *Collector) onDrop(node packet.NodeID, p *packet.Packet, reason switching.DropReason) {
	c.Drops[reason]++
	if p.Kind == packet.Data {
		if f := c.Flow(p.Flow); f != nil {
			c.DropsByClass[f.Class]++
		}
	}
	c.Events.Record(trace.Event{Kind: trace.KindDrop, Node: node, Flow: p.Flow, Seq: p.Seq, Detail: reason.String()})
}

func (c *Collector) onDetour(node packet.NodeID, p *packet.Packet, desired, chosen int) {
	c.Detours++
	if f := c.Flow(p.Flow); f != nil {
		c.DetoursByClass[f.Class]++
	}
	if c.Events != nil { // the Sprintf is not free
		c.Events.Record(trace.Event{Kind: trace.KindDetour, Node: node, Flow: p.Flow, Seq: p.Seq,
			Detail: fmt.Sprintf("%d->%d", desired, chosen)})
	}
}

// OnDeliver records a data packet reaching its destination host. The host
// layer calls this for every data packet.
func (c *Collector) OnDeliver(p *packet.Packet) {
	if p.Kind != packet.Data {
		if p.Kind == packet.Ack {
			c.DeliveredAcks++
		}
		return
	}
	c.DeliveredData++
	if p.Detours > 0 {
		c.DetourCounts.Add(p.Detours)
	}
	if p.Detours > c.MaxDetours {
		c.MaxDetours = p.Detours
	}
	if p.Trace != nil && p.Detours > c.BestDetours {
		c.BestDetours = p.Detours
		c.BestTrace = append(c.BestTrace[:0], p.Trace...)
		c.bestAt, c.bestPri = c.sched.Now(), c.sched.Pri()
	}
	if c.Events != nil { // keep the untraced delivery path call-free
		c.Events.Record(trace.Event{Kind: trace.KindDeliver, Node: p.Dst, Flow: p.Flow, Seq: p.Seq})
	}
}

// FlowStarted registers a new flow. queryID is -1 for non-query flows.
func (c *Collector) FlowStarted(id packet.FlowID, class FlowClass, bytes int64, queryID int) {
	c.FlowStartedAt(id, class, bytes, queryID, c.sched.Now())
}

// FlowStartedAt is FlowStarted with an explicit start time. The sharded
// engine uses it to register the full precomputed flow table in every
// shard's collector before the run begins, so drop/detour class attribution
// works in whichever shard a packet happens to be when the hook fires.
//
// The record lives at index id of a table that grows to fit it, so IDs
// should be dense from 0, as the recorded schedule assigns them;
// ReserveFlows sizes the table up front.
func (c *Collector) FlowStartedAt(id packet.FlowID, class FlowClass, bytes int64, queryID int, at eventq.Time) {
	c.ReserveFlows(int(id) + 1)
	c.flows[id] = FlowInfo{
		ID:      id,
		Class:   class,
		Bytes:   bytes,
		QueryID: queryID,
		Start:   at,
		known:   true,
	}
}

// ReserveFlows extends the flow table to at least n entries, the new ones
// gaps until registered: registering flows 0..n-1 then allocates nothing
// more and moves no *FlowInfo handed out.
func (c *Collector) ReserveFlows(n int) {
	if n > len(c.flows) {
		c.flows = append(c.flows, make([]FlowInfo, n-len(c.flows))...)
	}
}

// FlowDone marks a flow complete, updating FCT samples and any parent
// query.
func (c *Collector) FlowDone(id packet.FlowID) {
	f := c.Flow(id)
	if f == nil || f.Done() {
		return
	}
	f.End = c.sched.Now()
	fctMs := f.FCT().Millis()
	switch f.Class {
	case ClassBackground:
		c.BGFCTs.Add(fctMs)
		if f.Bytes >= 1_000 && f.Bytes <= 10_000 {
			c.ShortBGFCTs.Add(fctMs)
		}
	}
	if f.QueryID >= 0 {
		q := c.queries[f.QueryID]
		if q != nil && q.end == 0 {
			q.remaining--
			if q.remaining == 0 {
				q.end = c.sched.Now()
				c.QCTs.Add((q.end - q.start).Millis())
			}
		}
	}
}

// QueryStarted registers a query of nFlows responses.
func (c *Collector) QueryStarted(queryID, nFlows int) {
	c.QueryStartedAt(queryID, nFlows, c.sched.Now())
}

// QueryStartedAt is QueryStarted with an explicit start time, for
// pre-registering the precomputed query table in every shard's collector.
func (c *Collector) QueryStartedAt(queryID, nFlows int, at eventq.Time) {
	c.queries[queryID] = &queryState{remaining: nFlows, start: at}
}

// MergeFrom folds another collector's measurements into c, the reduction
// step after a sharded run. Every aggregate it touches is order-independent
// across shards: counters and histograms sum, maxima take the max,
// samples append raw values (percentiles sort internally), and
// per-flow/per-query state is keyed so exactly one shard ever contributes
// the completion (a flow finishes at its destination host's shard; all of
// a query's flows share one destination). Flows merge by index, queries
// over sorted keys, so the merged in-memory layout is itself
// deterministic. The instruments merge into what one shard would have
// recorded — the best trace by (detours, delivery key), the event log by
// each record's (time, same-instant key), the monitors by port — and c
// must have every instrument o has.
func (c *Collector) MergeFrom(o *Collector) {
	c.QCTs.AddAll(o.QCTs.Values())
	c.ShortBGFCTs.AddAll(o.ShortBGFCTs.Values())
	c.BGFCTs.AddAll(o.BGFCTs.Values())
	c.DetourCounts.MergeFrom(&o.DetourCounts)
	for i := range c.Drops {
		c.Drops[i] += o.Drops[i]
	}
	for i := range c.DropsByClass {
		c.DropsByClass[i] += o.DropsByClass[i]
		c.DetoursByClass[i] += o.DetoursByClass[i]
	}
	c.Detours += o.Detours
	c.DeliveredData += o.DeliveredData
	c.DeliveredAcks += o.DeliveredAcks
	c.MaxDetours = max(c.MaxDetours, o.MaxDetours)
	if o.BestDetours > c.BestDetours || o.BestDetours > 0 && o.BestDetours == c.BestDetours &&
		(o.bestAt < c.bestAt || o.bestAt == c.bestAt && o.bestPri < c.bestPri) {
		c.BestDetours, c.bestAt, c.bestPri = o.BestDetours, o.bestAt, o.bestPri
		c.BestTrace = append(c.BestTrace[:0], o.BestTrace...)
	}
	if o.Events != nil {
		c.Events.MergeFrom(o.Events)
	}
	if o.Util != nil {
		c.Util.MergeFrom(o.Util)
	}
	if o.Buf != nil {
		c.Buf.MergeFrom(o.Buf)
	}

	c.ReserveFlows(len(o.flows))
	for i := range o.flows {
		of, f := &o.flows[i], &c.flows[i]
		switch {
		case !of.known:
		case !f.known:
			*f = *of
		case of.End > f.End:
			f.End = of.End
		}
	}

	// Indexed fill + sort: the iteration order of the source map never
	// reaches the merged state.
	queryIDs := make([]int, len(o.queries))
	i := 0
	for id := range o.queries {
		queryIDs[i] = id
		i++
	}
	sortInts(queryIDs)
	for _, id := range queryIDs {
		oq := o.queries[id]
		q, ok := c.queries[id]
		if !ok {
			cp := *oq
			c.queries[id] = &cp
			continue
		}
		if oq.remaining < q.remaining {
			q.remaining = oq.remaining
		}
		if oq.end > q.end {
			q.end = oq.end
		}
	}
}

func sortInts(ids []int) { sort.Ints(ids) }

// Flow returns the record for id (nil when unknown). The pointer stays
// valid until a FlowStarted beyond the reserved table moves it.
func (c *Collector) Flow(id packet.FlowID) *FlowInfo {
	if uint64(id) >= uint64(len(c.flows)) || !c.flows[id].known {
		return nil
	}
	return &c.flows[id]
}

// EachFlow visits every registered flow in ascending FlowID order.
func (c *Collector) EachFlow(fn func(*FlowInfo)) {
	for i := range c.flows {
		if c.flows[i].known {
			fn(&c.flows[i])
		}
	}
}

// CompletedQueries returns how many queries have fully completed.
func (c *Collector) CompletedQueries() int {
	n := 0
	for _, q := range c.queries {
		if q.end > 0 {
			n++
		}
	}
	return n
}

// StartedQueries returns how many queries were registered.
func (c *Collector) StartedQueries() int { return len(c.queries) }

// CompletedFlows returns the number of completed flows of a class.
func (c *Collector) CompletedFlows(class FlowClass) int {
	n := 0
	for i := range c.flows {
		if f := &c.flows[i]; f.Class == class && f.Done() {
			n++
		}
	}
	return n
}

// TotalDrops sums drops over all reasons.
func (c *Collector) TotalDrops() uint64 {
	var t uint64
	for _, d := range c.Drops {
		t += d
	}
	return t
}

// DetouredFraction returns detour decisions / delivered data packets, an
// upper-bound analogue of the paper's "fraction of packets detoured".
func (c *Collector) DetouredFraction() float64 {
	if c.DeliveredData == 0 {
		return 0
	}
	return float64(c.Detours) / float64(c.DeliveredData)
}
