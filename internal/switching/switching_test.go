package switching

import (
	"math/rand"
	"testing"

	"dibs/internal/core"
	"dibs/internal/eventq"
	"dibs/internal/packet"
	"dibs/internal/queue"
	"dibs/internal/topology"
)

// capture records delivered packets with their arrival times.
type capture struct {
	pkts  []*packet.Packet
	times []eventq.Time
	sched *eventq.Scheduler
}

func (c *capture) Receive(p *packet.Packet, port int) {
	c.pkts = append(c.pkts, p)
	c.times = append(c.times, c.sched.Now())
}

func dataPkt(flow packet.FlowID, dst packet.NodeID, ttl int) *packet.Packet {
	return &packet.Packet{Kind: packet.Data, Flow: flow, Dst: dst, PayloadBytes: 1460, TTL: ttl}
}

// pooledPkt is dataPkt for packets that will reach a terminal path (drop,
// TTL expiry, eviction): StrictFree requires those to come from a pool.
func pooledPkt(pl *packet.Pool, flow packet.FlowID, dst packet.NodeID, ttl int) *packet.Packet {
	p := pl.Get()
	p.Kind = packet.Data
	p.Flow = flow
	p.Dst = dst
	p.PayloadBytes = 1460
	p.TTL = ttl
	return p
}

func TestOutPortTiming(t *testing.T) {
	sched := eventq.NewScheduler()
	sink := &capture{sched: sched}
	// 1 Gbps, 1500ns propagation.
	op := NewOutPort(sched, queue.NewDropTail(10, 0), 1_000_000_000, 1500, sink, 0)
	p := dataPkt(1, 0, 64) // 1500B on the wire
	op.Enqueue(p)
	sched.Run()
	// Serialization: 1500B * 8 / 1Gbps = 12000ns; arrival at 12000+1500.
	if len(sink.times) != 1 || sink.times[0] != 13500 {
		t.Fatalf("arrival at %v, want 13500ns", sink.times)
	}
	if op.TxPackets != 1 || op.TxBytes != 1500 {
		t.Fatalf("tx counters: %d pkts %d bytes", op.TxPackets, op.TxBytes)
	}
	if op.BusyTime() != 12000 {
		t.Fatalf("busy time = %v", op.BusyTime())
	}
}

func TestOutPortBackToBack(t *testing.T) {
	sched := eventq.NewScheduler()
	sink := &capture{sched: sched}
	op := NewOutPort(sched, queue.NewDropTail(10, 0), 1_000_000_000, 0, sink, 0)
	for i := 0; i < 3; i++ {
		op.Enqueue(dataPkt(packet.FlowID(i), 0, 64))
	}
	sched.Run()
	// Three 12us serializations back to back.
	want := []eventq.Time{12000, 24000, 36000}
	for i, w := range want {
		if sink.times[i] != w {
			t.Fatalf("packet %d arrived at %v, want %v", i, sink.times[i], w)
		}
	}
	// FIFO order preserved.
	for i, p := range sink.pkts {
		if p.Flow != packet.FlowID(i) {
			t.Fatal("FIFO order broken")
		}
	}
}

func TestOutPortSerializationScalesWithRate(t *testing.T) {
	sched := eventq.NewScheduler()
	op := NewOutPort(sched, queue.NewDropTail(1, 0), 250_000_000, 0, &capture{sched: sched}, 0)
	// Quarter rate -> 4x serialization time.
	if got := op.SerializationTime(1500); got != 48000 {
		t.Fatalf("serialization at 250Mbps = %v, want 48000ns", got)
	}
}

func TestBadRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for rate 0")
		}
	}()
	NewOutPort(eventq.NewScheduler(), queue.NewDropTail(1, 0), 0, 0, nil, 0)
}

// buildSwitch wires a Switch over the Click testbed topology with capture
// handlers on every peer port. Returns the edge switch attached to hosts
// 0,1, its captures (indexed by the switch's own port number), and the
// scheduler.
func buildSwitch(t *testing.T, policy core.Policy, qcap int) (*Switch, *topology.Topology, map[int]*capture, *eventq.Scheduler, *Hooks) {
	t.Helper()
	// edge-0: ports to aggr-0, aggr-1, host-0-0, host-0-1
	return buildSwitchAt(t, func(topo *topology.Topology) packet.NodeID { return topo.Switches()[2] }, policy, qcap)
}

// buildSwitchAt is buildSwitch for the Click testbed node that at picks.
func buildSwitchAt(t *testing.T, at func(*topology.Topology) packet.NodeID, policy core.Policy, qcap int) (*Switch, *topology.Topology, map[int]*capture, *eventq.Scheduler, *Hooks) {
	t.Helper()
	topo := topology.ClickTestbed(topology.DefaultLink)
	sched := eventq.NewScheduler()
	hooks := &Hooks{}
	sw := at(topo)
	caps := make(map[int]*capture)
	var ports []*OutPort
	for pi, p := range topo.Ports(sw) {
		c := &capture{sched: sched}
		caps[pi] = c
		ports = append(ports, NewOutPort(sched, queue.NewDropTail(qcap, 0), p.RateBps, p.Delay, c, p.PeerPort))
	}
	s := NewSwitch(sw, topo, ports, policy, rand.New(rand.NewSource(7)), hooks)
	return s, topo, caps, sched, hooks
}

func hostPortOf(t *testing.T, topo *topology.Topology, sw, host packet.NodeID) int {
	t.Helper()
	for pi, p := range topo.Ports(sw) {
		if p.Peer == host {
			return pi
		}
	}
	t.Fatalf("no port from %d to %d", sw, host)
	return -1
}

func TestSwitchForwardsToHost(t *testing.T) {
	s, topo, caps, sched, _ := buildSwitch(t, nil, 10)
	host := topo.Hosts()[0] // attached to edge-0
	hp := hostPortOf(t, topo, s.ID, host)
	p := dataPkt(1, host, 64)
	s.Receive(p, 0)
	sched.Run()
	if len(caps[hp].pkts) != 1 {
		t.Fatalf("packet not delivered to host port %d", hp)
	}
	if p.TTL != 63 {
		t.Fatalf("TTL = %d, want 63", p.TTL)
	}
	if p.Hops != 1 {
		t.Fatalf("Hops = %d", p.Hops)
	}
}

func TestSwitchECMPSpreadAndFlowStickiness(t *testing.T) {
	s, topo, caps, sched, _ := buildSwitch(t, nil, 1000)
	// Destination in another rack: 2 ECMP uplinks (ports to aggr-0/1).
	dst := topo.Hosts()[2]
	for f := packet.FlowID(0); f < 64; f++ {
		for i := 0; i < 3; i++ { // several packets per flow
			s.Receive(dataPkt(f, dst, 64), 2)
		}
	}
	sched.Run()
	up0, up1 := len(caps[0].pkts), len(caps[1].pkts)
	if up0+up1 != 64*3 {
		t.Fatalf("delivered %d+%d, want 192", up0, up1)
	}
	if up0 == 0 || up1 == 0 {
		t.Fatal("ECMP did not spread across uplinks")
	}
	// Flow stickiness: all packets of a flow exit the same port.
	seen := map[packet.FlowID]int{}
	for pi, c := range caps {
		for _, p := range c.pkts {
			if prev, ok := seen[p.Flow]; ok && prev != pi {
				t.Fatalf("flow %d split across ports %d and %d", p.Flow, prev, pi)
			}
			seen[p.Flow] = pi
		}
	}
}

func TestSwitchTTLExpiry(t *testing.T) {
	s, topo, caps, sched, hooks := buildSwitch(t, nil, 10)
	var dropped []*packet.Packet
	hooks.OnDrop = func(n packet.NodeID, p *packet.Packet, r DropReason) {
		if r != DropTTL {
			t.Errorf("reason = %v, want ttl", r)
		}
		dropped = append(dropped, p)
	}
	s.Receive(pooledPkt(packet.NewPool(), 1, topo.Hosts()[0], 1), 0)
	sched.Run()
	if len(dropped) != 1 || s.Drops[DropTTL] != 1 {
		t.Fatalf("TTL drop not recorded: %d", s.Drops[DropTTL])
	}
	for _, c := range caps {
		if len(c.pkts) != 0 {
			t.Fatal("expired packet was forwarded")
		}
	}
}

func TestSwitchDropTailWithoutDIBS(t *testing.T) {
	s, topo, _, sched, hooks := buildSwitch(t, nil, 2)
	drops := 0
	hooks.OnDrop = func(n packet.NodeID, p *packet.Packet, r DropReason) {
		if r != DropOverflow {
			t.Errorf("reason = %v", r)
		}
		drops++
	}
	host := topo.Hosts()[0]
	// 10 packets into a 2-deep queue; one may be in the transmitter.
	pl := packet.NewPool()
	for i := 0; i < 10; i++ {
		s.Receive(pooledPkt(pl, 1, host, 64), 0)
	}
	if drops == 0 || s.Drops[DropOverflow] == 0 {
		t.Fatal("no overflow drops recorded")
	}
	sched.Run()
}

func TestSwitchDIBSDetoursInsteadOfDropping(t *testing.T) {
	s, topo, caps, sched, hooks := buildSwitch(t, core.NewRandom(), 2)
	s.MarkDetours = true
	detours := 0
	hooks.OnDetour = func(n packet.NodeID, p *packet.Packet, desired, chosen int) {
		if s.IsHostPort(chosen) {
			t.Error("detoured to a host port")
		}
		detours++
	}
	hooks.OnDrop = func(n packet.NodeID, p *packet.Packet, r DropReason) {
		t.Errorf("unexpected drop: %v", r)
	}
	host := topo.Hosts()[0]
	hp := hostPortOf(t, topo, s.ID, host)
	// Capacity at one instant: (2 queued + 1 in transmitter) on the host
	// port plus the same on each of the 2 uplinks = 9 packets; send
	// exactly that many so nothing is forced to drop.
	for i := 0; i < 9; i++ {
		s.Receive(dataPkt(1, host, 64), 0)
	}
	if detours == 0 || s.Detours == 0 {
		t.Fatal("no detours under congestion")
	}
	sched.Run()
	// Detoured packets went out the uplinks (ports 0/1) and are CE-marked.
	detouredOut := 0
	for pi, c := range caps {
		if pi == hp {
			continue
		}
		for _, p := range c.pkts {
			if p.Detours > 0 {
				detouredOut++
				if !p.CE {
					t.Error("detoured packet not CE-marked")
				}
			}
		}
	}
	if detouredOut != detours {
		t.Fatalf("detoured out %d, decisions %d", detouredOut, detours)
	}
}

func TestSwitchDIBSDropsWhenAllNeighborsFull(t *testing.T) {
	s, topo, _, sched, hooks := buildSwitch(t, core.NewRandom(), 1)
	noDetour := 0
	hooks.OnDrop = func(n packet.NodeID, p *packet.Packet, r DropReason) {
		if r == DropNoDetour {
			noDetour++
		}
	}
	host := topo.Hosts()[0]
	// Flood far more than 4 ports x 1 slot can hold before any drains.
	pl := packet.NewPool()
	for i := 0; i < 50; i++ {
		s.Receive(pooledPkt(pl, packet.FlowID(i), host, 64), 0)
	}
	if noDetour == 0 {
		t.Fatal("expected DropNoDetour when the whole neighborhood is full")
	}
	sched.Run()
}

func TestSwitchTraceRecording(t *testing.T) {
	s, topo, _, sched, _ := buildSwitch(t, core.NewRandom(), 2)
	host := topo.Hosts()[0]
	traced := dataPkt(9, host, 64)
	traced.Trace = make([]packet.TraceHop, 0, 8)
	// Fill the host port queue first so the traced packet detours.
	for i := 0; i < 5; i++ {
		s.Receive(dataPkt(1, host, 64), 0)
	}
	s.Receive(traced, 0)
	sched.Run()
	if len(traced.Trace) == 0 {
		t.Fatal("no trace recorded")
	}
	hop := traced.Trace[0]
	if hop.Node != s.ID {
		t.Fatalf("trace node = %d", hop.Node)
	}
	if !hop.Detoured {
		t.Fatal("trace should record the detour")
	}
}

func TestSwitchNoRouteDrop(t *testing.T) {
	// Build a second disconnected topology to get an unroutable dst: use a
	// host id that exists but verify via a switch from a *different* use:
	// simplest is TTL-valid packet to a host with no FIB entry; all hosts
	// are reachable in our topologies, so instead check the counter stays
	// untouched during normal forwarding.
	s, topo, _, sched, _ := buildSwitch(t, nil, 10)
	s.Receive(dataPkt(1, topo.Hosts()[0], 64), 0)
	sched.Run()
	if s.Drops[DropNoRoute] != 0 {
		t.Fatal("spurious no-route drop")
	}
}

func TestSwitchNumPorts(t *testing.T) {
	s, _, _, _, _ := buildSwitch(t, nil, 17)
	if s.NumPorts() != 4 {
		t.Fatalf("NumPorts = %d", s.NumPorts())
	}
}

func TestPFabricEvictionCountsAsDrop(t *testing.T) {
	topo := topology.ClickTestbed(topology.DefaultLink)
	sched := eventq.NewScheduler()
	sw := topo.Switches()[2]
	evicted := 0
	hooks := &Hooks{OnDrop: func(n packet.NodeID, p *packet.Packet, r DropReason) {
		if r == DropEvicted {
			evicted++
		}
	}}
	var ports []*OutPort
	for _, p := range topo.Ports(sw) {
		ports = append(ports, NewOutPort(sched, queue.NewPFabric(2), p.RateBps, p.Delay, &capture{sched: sched}, p.PeerPort))
	}
	s := NewSwitch(sw, topo, ports, nil, rand.New(rand.NewSource(1)), hooks)
	host := topo.Hosts()[0]
	pl := packet.NewPool()
	mk := func(prio int64) *packet.Packet {
		p := pooledPkt(pl, packet.FlowID(prio), host, 64)
		p.Priority = prio
		return p
	}
	// Low priority fills the 2-slot queue (one may enter the transmitter),
	// then high priority evicts.
	s.Receive(mk(1000), 0)
	s.Receive(mk(900), 0)
	s.Receive(mk(800), 0)
	s.Receive(mk(10), 0)
	if evicted == 0 || s.Drops[DropEvicted] == 0 {
		t.Fatal("pFabric eviction not recorded as drop")
	}
	sched.Run()
}

func TestTotalDrops(t *testing.T) {
	s, topo, _, sched, _ := buildSwitch(t, nil, 1)
	pl := packet.NewPool()
	for i := 0; i < 10; i++ {
		s.Receive(pooledPkt(pl, 1, topo.Hosts()[0], 64), 0)
	}
	sched.Run()
	if s.TotalDrops() != s.Drops[DropOverflow] {
		t.Fatal("TotalDrops mismatch")
	}
	if s.TotalDrops() == 0 {
		t.Fatal("expected drops")
	}
}

func TestDropReasonStrings(t *testing.T) {
	want := map[DropReason]string{
		DropOverflow: "overflow",
		DropNoDetour: "no-detour",
		DropTTL:      "ttl",
		DropNoRoute:  "no-route",
		DropEvicted:  "evicted",
	}
	for r, w := range want {
		if r.String() != w {
			t.Fatalf("%d.String() = %q", r, r.String())
		}
	}
	if DropReason(99).String() == "" {
		t.Fatal("unknown reason should still format")
	}
}
