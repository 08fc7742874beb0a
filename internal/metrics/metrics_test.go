package metrics

import (
	"testing"

	"dibs/internal/eventq"
	"dibs/internal/packet"
	"dibs/internal/queue"
	"dibs/internal/switching"
)

func TestFlowLifecycleAndFCT(t *testing.T) {
	sched := eventq.NewScheduler()
	c := NewCollector(sched)
	c.FlowStarted(1, ClassBackground, 5_000, -1)
	sched.At(3*eventq.Millisecond, func() { c.FlowDone(1) })
	sched.Run()
	if c.CompletedFlows(ClassBackground) != 1 {
		t.Fatal("flow not completed")
	}
	if c.BGFCTs.N() != 1 || c.BGFCTs.Max() != 3 {
		t.Fatalf("BG FCT = %v", c.BGFCTs.Values())
	}
	// 5KB is in the short-flow band.
	if c.ShortBGFCTs.N() != 1 {
		t.Fatal("short-flow FCT not recorded")
	}
	f := c.Flow(1)
	if f == nil || !f.Done() || f.FCT() != 3*eventq.Millisecond {
		t.Fatalf("flow info: %+v", f)
	}
}

func TestShortFlowBand(t *testing.T) {
	sched := eventq.NewScheduler()
	c := NewCollector(sched)
	c.FlowStarted(1, ClassBackground, 500, -1)     // below band
	c.FlowStarted(2, ClassBackground, 100_000, -1) // above band
	c.FlowStarted(3, ClassBackground, 10_000, -1)  // inside band
	sched.At(1, func() { c.FlowDone(1); c.FlowDone(2); c.FlowDone(3) })
	sched.Run()
	if c.BGFCTs.N() != 3 {
		t.Fatalf("all BG FCTs = %d", c.BGFCTs.N())
	}
	if c.ShortBGFCTs.N() != 1 {
		t.Fatalf("short FCTs = %d, want 1", c.ShortBGFCTs.N())
	}
}

func TestQueryCompletion(t *testing.T) {
	sched := eventq.NewScheduler()
	c := NewCollector(sched)
	c.QueryStarted(0, 3)
	for i := packet.FlowID(1); i <= 3; i++ {
		c.FlowStarted(i, ClassQuery, 20_000, 0)
	}
	sched.At(2*eventq.Millisecond, func() { c.FlowDone(1) })
	sched.At(5*eventq.Millisecond, func() { c.FlowDone(2) })
	sched.At(9*eventq.Millisecond, func() { c.FlowDone(3) })
	sched.Run()
	if c.CompletedQueries() != 1 || c.StartedQueries() != 1 {
		t.Fatal("query not completed")
	}
	// QCT is gated by the last response: 9ms.
	if c.QCTs.N() != 1 || c.QCTs.Max() != 9 {
		t.Fatalf("QCT = %v", c.QCTs.Values())
	}
}

func TestQueryIncompleteWithoutAllFlows(t *testing.T) {
	sched := eventq.NewScheduler()
	c := NewCollector(sched)
	c.QueryStarted(7, 2)
	c.FlowStarted(1, ClassQuery, 1000, 7)
	c.FlowStarted(2, ClassQuery, 1000, 7)
	sched.At(1, func() { c.FlowDone(1) })
	sched.Run()
	if c.CompletedQueries() != 0 {
		t.Fatal("query should be incomplete")
	}
	if c.QCTs.N() != 0 {
		t.Fatal("no QCT should be recorded")
	}
}

func TestFlowDoneIdempotent(t *testing.T) {
	sched := eventq.NewScheduler()
	c := NewCollector(sched)
	c.FlowStarted(1, ClassBackground, 2000, -1)
	sched.At(1, func() { c.FlowDone(1); c.FlowDone(1) })
	sched.Run()
	if c.BGFCTs.N() != 1 {
		t.Fatalf("FCT recorded %d times", c.BGFCTs.N())
	}
	// Unknown flow is a no-op.
	c.FlowDone(99)
}

func TestHookCounters(t *testing.T) {
	sched := eventq.NewScheduler()
	c := NewCollector(sched)
	c.FlowStarted(1, ClassQuery, 1000, -1)
	c.FlowStarted(2, ClassBackground, 1000, -1)
	h := c.Hooks()
	dp := &packet.Packet{Kind: packet.Data, Flow: 1}
	bp := &packet.Packet{Kind: packet.Data, Flow: 2}
	h.OnDrop(5, dp, switching.DropOverflow)
	h.OnDrop(5, bp, switching.DropOverflow)
	h.OnDetour(5, dp, 0, 1)
	h.OnDetour(6, dp, 0, 2)
	if c.TotalDrops() != 2 || c.Drops[switching.DropOverflow] != 2 {
		t.Fatal("drop counters")
	}
	if c.DropsByClass[ClassQuery] != 1 || c.DropsByClass[ClassBackground] != 1 {
		t.Fatal("per-class drops")
	}
	if c.Detours != 2 || c.DetoursByClass[ClassQuery] != 2 {
		t.Fatal("detour counters")
	}
}

func TestOnDeliverTracksWorstDetouredPacket(t *testing.T) {
	sched := eventq.NewScheduler()
	c := NewCollector(sched)
	p1 := &packet.Packet{Kind: packet.Data, Detours: 3,
		Trace: []packet.TraceHop{{Node: 1, Port: 0, Detoured: true}}}
	p2 := &packet.Packet{Kind: packet.Data, Detours: 15,
		Trace: []packet.TraceHop{{Node: 2, Port: 1, Detoured: true}, {Node: 3, Port: 0}}}
	p3 := &packet.Packet{Kind: packet.Data, Detours: 7}
	c.OnDeliver(p1)
	c.OnDeliver(p2)
	c.OnDeliver(p3)
	c.OnDeliver(&packet.Packet{Kind: packet.Ack, Detours: 99})
	if c.MaxDetours != 15 {
		t.Fatalf("MaxDetours = %d", c.MaxDetours)
	}
	if len(c.BestTrace) != 2 || c.BestTrace[0].Node != 2 {
		t.Fatalf("BestTrace = %v", c.BestTrace)
	}
	if c.DeliveredData != 3 {
		t.Fatalf("DeliveredData = %d", c.DeliveredData)
	}
	if c.DetourCounts.N() != 3 {
		t.Fatalf("DetourCounts = %d", c.DetourCounts.N())
	}
	// DetouredFraction relates detour *decisions* (hook) to deliveries.
	c.Hooks().OnDetour(1, p1, 0, 1)
	if f := c.DetouredFraction(); f <= 0 {
		t.Fatalf("DetouredFraction = %v", f)
	}
}

// Figure 1 pairs the best path with its detour count, so both must come
// from the same packet: the most-detoured *traced* packet, even when an
// untraced packet detoured more, and the first delivered on ties. Merged
// shards agree with one collector that saw every delivery.
func TestBestTraceIsTheMostDetouredTracedPacket(t *testing.T) {
	path := func(node packet.NodeID, hops int) []packet.TraceHop {
		out := make([]packet.TraceHop, hops)
		for i := range out {
			out[i] = packet.TraceHop{Node: node, Port: i, Detoured: true}
		}
		return out
	}
	type delivery struct {
		at    eventq.Time
		pri   int64
		shard int
		p     *packet.Packet
	}
	deliveries := []delivery{
		{10, 5, 0, &packet.Packet{Kind: packet.Data, Detours: 15}},                     // untraced, most detours
		{20, 9, 1, &packet.Packet{Kind: packet.Data, Detours: 10, Trace: path(7, 10)}}, // the answer
		{20, 3, 0, &packet.Packet{Kind: packet.Data, Detours: 4, Trace: path(8, 4)}},
		{30, 2, 0, &packet.Packet{Kind: packet.Data, Detours: 10, Trace: path(9, 10)}}, // tie, delivered later
	}
	deliver := func(c *Collector, sched *eventq.Scheduler, shard int) {
		for _, d := range deliveries {
			if shard < 0 || d.shard == shard {
				d := d
				sched.AtPri(d.at, d.pri, func() { c.OnDeliver(d.p) })
			}
		}
		sched.Run()
	}
	check := func(name string, c *Collector) {
		t.Helper()
		if c.MaxDetours != 15 || c.BestDetours != 10 || len(c.BestTrace) != 10 || c.BestTrace[0].Node != 7 {
			t.Errorf("%s: MaxDetours %d, BestDetours %d, BestTrace %v; want 15, 10 and node 7's path",
				name, c.MaxDetours, c.BestDetours, c.BestTrace)
		}
	}
	s := eventq.NewScheduler()
	one := NewCollector(s)
	deliver(one, s, -1)
	check("one collector", one)

	for _, order := range [][2]int{{0, 1}, {1, 0}} {
		merged := NewCollector(eventq.NewScheduler())
		for _, shard := range order {
			s := eventq.NewScheduler()
			c := NewCollector(s)
			deliver(c, s, shard)
			merged.MergeFrom(c)
		}
		check("merged", merged)
	}
}

// sink discards packets.
type sink struct{}

func (sink) Receive(p *packet.Packet, port int) {}

func TestLinkUtilMonitor(t *testing.T) {
	sched := eventq.NewScheduler()
	// 1 Gbps port; a 1500B packet busies it for 12us.
	op := switching.NewOutPort(sched, queue.NewDropTail(1000, 0), 1_000_000_000, 0, sink{}, 0)
	m := NewLinkUtilMonitor(sched, 120*eventq.Microsecond, []PortRef{{Node: 1, Port: 0, Out: op}})
	m.Start()
	// Saturate the first window: 10 packets = 120us busy.
	for i := 0; i < 10; i++ {
		op.Enqueue(&packet.Packet{Kind: packet.Data, PayloadBytes: 1460})
	}
	sched.RunUntil(240 * eventq.Microsecond)
	if len(m.Windows) != 2 {
		t.Fatalf("windows = %d", len(m.Windows))
	}
	if m.Windows[0][0] < 0.99 {
		t.Fatalf("first window util = %v, want ~1", m.Windows[0][0])
	}
	if m.Windows[1][0] != 0 {
		t.Fatalf("second window util = %v, want 0", m.Windows[1][0])
	}
	hot := m.HotFractions(0.9)
	if hot[0] != 1 || hot[1] != 0 {
		t.Fatalf("hot fractions = %v", hot)
	}
	if got := m.HotPorts(0, 0.9); len(got) != 1 || got[0] != 0 {
		t.Fatalf("hot ports = %v", got)
	}
}

func TestBufferSampler(t *testing.T) {
	sched := eventq.NewScheduler()
	q := queue.NewDropTail(2, 0)
	op := switching.NewOutPort(sched, q, 1_000_000_000, 0, sink{}, 0)
	b := NewBufferSampler(sched, 10*eventq.Microsecond, []PortRef{{Node: 1, Port: 0, Out: op}})
	b.Start()
	// Fill: 3 packets (1 transmitting at 12us, 2 queued).
	for i := 0; i < 3; i++ {
		op.Enqueue(&packet.Packet{Kind: packet.Data, PayloadBytes: 1460})
	}
	sched.RunUntil(10 * eventq.Microsecond)
	if len(b.Snapshots) != 1 {
		t.Fatalf("snapshots = %d", len(b.Snapshots))
	}
	s := b.Snapshots[0]
	if s.Len[0] != 2 || !s.Full[0] {
		t.Fatalf("snapshot = %+v", s)
	}
	sched.RunUntil(eventq.Millisecond)
	last := b.Snapshots[len(b.Snapshots)-1]
	if last.Len[0] != 0 || last.Full[0] {
		t.Fatal("queue should have drained")
	}
}

func TestMonitorConstructorPanics(t *testing.T) {
	sched := eventq.NewScheduler()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero window should panic")
			}
		}()
		NewLinkUtilMonitor(sched, 0, nil)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero period should panic")
			}
		}()
		NewBufferSampler(sched, 0, nil)
	}()
}

func TestStartIdempotent(t *testing.T) {
	sched := eventq.NewScheduler()
	op := switching.NewOutPort(sched, queue.NewDropTail(2, 0), 1_000_000_000, 0, sink{}, 0)
	m := NewLinkUtilMonitor(sched, 10*eventq.Microsecond, []PortRef{{Out: op}})
	m.Start()
	m.Start()
	sched.RunUntil(10 * eventq.Microsecond)
	if len(m.Windows) != 1 {
		t.Fatalf("double Start duplicated sampling: %d windows", len(m.Windows))
	}
	b := NewBufferSampler(sched, 10*eventq.Microsecond, []PortRef{{Out: op}})
	b.Start()
	b.Start()
	sched.RunUntil(20 * eventq.Microsecond)
	if len(b.Snapshots) != 1 {
		t.Fatalf("double Start duplicated snapshots: %d", len(b.Snapshots))
	}
}

func TestFlowClassString(t *testing.T) {
	if ClassQuery.String() != "query" || ClassBackground.String() != "background" ||
		ClassLong.String() != "long" || FlowClass(9).String() != "unknown" {
		t.Fatal("class strings")
	}
}

// shardOf registers flows [base, base+n) with c, query-less, and finishes
// the even ones at 1 ms + their ID in ns.
func shardOf(base, n int) *Collector {
	sched := eventq.NewScheduler()
	c := NewCollector(sched)
	for i := 0; i < n; i++ {
		c.FlowStarted(packet.FlowID(base+i), ClassBackground, 5_000, -1)
	}
	for i := 0; i < n; i += 2 {
		id := packet.FlowID(base + i)
		sched.At(eventq.Millisecond+eventq.Time(id), func() { c.FlowDone(id) })
	}
	sched.Run()
	return c
}

// Two shards owning disjoint ID ranges merge into one table holding every
// flow once, in ID order, with each shard's completions.
func TestMergeFromDisjointRanges(t *testing.T) {
	const half = 20_000
	m := NewCollector(eventq.NewScheduler())
	m.MergeFrom(shardOf(0, half))
	m.MergeFrom(shardOf(half, half))
	if got := m.CompletedFlows(ClassBackground); got != half {
		t.Fatalf("%d flows completed after the merge, want %d", got, half)
	}
	if m.BGFCTs.N() != half {
		t.Fatalf("%d FCT samples, want %d", m.BGFCTs.N(), half)
	}
	next := packet.FlowID(0)
	m.EachFlow(func(f *FlowInfo) {
		if f.ID != next {
			t.Fatalf("EachFlow visited flow %d, want %d", f.ID, next)
		}
		if done := f.ID%2 == 0; f.Done() != done || done && f.End != eventq.Millisecond+eventq.Time(f.ID) {
			t.Fatalf("flow %d: %+v", f.ID, *f)
		}
		next++
	})
	if next != 2*half {
		t.Fatalf("EachFlow visited %d flows, want %d", next, 2*half)
	}
	if m.Flow(2*half) != nil || m.Flow(-1) != nil {
		t.Fatal("Flow found an unregistered ID")
	}
}

// An empty collector is the identity of the merge, on either side.
func TestMergeFromEmptyCollector(t *testing.T) {
	full := shardOf(0, 100)
	into := shardOf(0, 100)
	into.MergeFrom(NewCollector(eventq.NewScheduler()))
	from := NewCollector(eventq.NewScheduler())
	from.MergeFrom(full)
	for _, c := range []*Collector{into, from} {
		var got []FlowInfo
		c.EachFlow(func(f *FlowInfo) { got = append(got, *f) })
		var want []FlowInfo
		full.EachFlow(func(f *FlowInfo) { want = append(want, *f) })
		if len(got) != len(want) {
			t.Fatalf("%d flows after merging with an empty collector, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("flow %d: %+v, want %+v", i, got[i], want[i])
			}
		}
	}
}

// A gap in the IDs is no flow: it is neither visited nor found, and a merge
// leaves it a gap.
func TestFlowTableGaps(t *testing.T) {
	c := NewCollector(eventq.NewScheduler())
	c.FlowStarted(3, ClassQuery, 1, 0)
	m := NewCollector(eventq.NewScheduler())
	m.MergeFrom(c)
	for _, x := range []*Collector{c, m} {
		n := 0
		x.EachFlow(func(*FlowInfo) { n++ })
		if n != 1 || x.Flow(0) != nil || x.Flow(3) == nil {
			t.Fatalf("%d flows visited, Flow(0) = %v, Flow(3) = %v", n, x.Flow(0), x.Flow(3))
		}
	}
}
