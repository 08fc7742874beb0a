package switching

import (
	"testing"

	"dibs/internal/core"
	"dibs/internal/eventq"
	"dibs/internal/packet"
	"dibs/internal/topology"
)

// buildCIOQ is buildSwitch with a CIOQ ingress stage of the given config
// in front of its small egress queues.
func buildCIOQ(t *testing.T, cfg CIOQConfig, policy core.Policy, egressCap int) (*Switch, *topology.Topology, map[int]*capture, *eventq.Scheduler, *Hooks) {
	t.Helper()
	s, topo, caps, sched, hooks := buildSwitch(t, policy, egressCap)
	s.EnableCIOQ(sched, cfg)
	return s, topo, caps, sched, hooks
}

func TestCIOQForwardsSinglePacket(t *testing.T) {
	s, topo, caps, sched, _ := buildCIOQ(t, DefaultCIOQ, nil, 10)
	host := topo.Hosts()[0]
	hp := hostPortOf(t, topo, s.ID, host)
	p := dataPkt(1, host, 64)
	s.Receive(p, 0)
	sched.Run()
	if len(caps[hp].pkts) != 1 {
		t.Fatal("packet not delivered")
	}
	if p.TTL != 63 || p.Hops != 1 {
		t.Fatalf("header updates: ttl=%d hops=%d", p.TTL, p.Hops)
	}
	if s.QueuedPackets() != 0 {
		t.Fatal("packets stuck in switch")
	}
}

func TestCIOQCrossbarContention(t *testing.T) {
	// Two inputs feed the same output: the crossbar serializes transfers,
	// FIFO per input, and everything arrives.
	s, topo, caps, sched, _ := buildCIOQ(t, DefaultCIOQ, nil, 100)
	host := topo.Hosts()[0]
	hp := hostPortOf(t, topo, s.ID, host)
	for i := 0; i < 10; i++ {
		s.Receive(dataPkt(packet.FlowID(i), host, 64), 0)
		s.Receive(dataPkt(packet.FlowID(100+i), host, 64), 1)
	}
	sched.Run()
	if got := len(caps[hp].pkts); got != 20 {
		t.Fatalf("delivered %d of 20", got)
	}
	// Per-input FIFO order preserved.
	last := map[int]packet.FlowID{}
	for _, p := range caps[hp].pkts {
		in := 0
		if p.Flow >= 100 {
			in = 1
		}
		if prev, ok := last[in]; ok && p.Flow <= prev {
			t.Fatal("per-input order violated")
		}
		last[in] = p.Flow
	}
}

func TestCIOQVOQPreventsHeadOfLineBlocking(t *testing.T) {
	// Input 0 queues traffic to a congested output (host port with tiny
	// egress) and to an idle output; the idle output's traffic must not
	// wait behind the congested one.
	s, topo, caps, sched, _ := buildCIOQ(t, CIOQConfig{IngressCap: 1000, Speedup: 2}, nil, 2)
	hostA := topo.Hosts()[0]
	hostB := topo.Hosts()[1]
	hpA := hostPortOf(t, topo, s.ID, hostA)
	hpB := hostPortOf(t, topo, s.ID, hostB)
	// 50 packets to A (will back up in the VOQ: egress cap 2), then 1 to B.
	for i := 0; i < 50; i++ {
		s.Receive(dataPkt(packet.FlowID(i), hostA, 64), 0)
	}
	s.Receive(dataPkt(999, hostB, 64), 0)
	// B's packet should arrive long before A's backlog drains (~600us).
	sched.RunUntil(100 * eventq.Microsecond)
	if len(caps[hpB].pkts) != 1 {
		t.Fatal("VOQ head-of-line blocking: idle output starved")
	}
	sched.Run()
	if len(caps[hpA].pkts) != 50 {
		t.Fatalf("A delivered %d of 50", len(caps[hpA].pkts))
	}
}

func TestCIOQIngressOverflow(t *testing.T) {
	s, topo, _, sched, hooks := buildCIOQ(t, CIOQConfig{IngressCap: 5, Speedup: 1}, nil, 1)
	drops := 0
	hooks.OnDrop = func(n packet.NodeID, p *packet.Packet, r DropReason) {
		if r == DropOverflow {
			drops++
		}
	}
	host := topo.Hosts()[0]
	pl := packet.NewPool()
	for i := 0; i < 20; i++ {
		s.Receive(pooledPkt(pl, packet.FlowID(i), host, 64), 0)
	}
	if drops == 0 || s.Drops[DropOverflow] == 0 {
		t.Fatal("ingress overflow not recorded")
	}
	if int(pl.Returned()) != drops {
		t.Fatalf("overflow drops freed %d packets, want %d", pl.Returned(), drops)
	}
	sched.Run()
}

func TestCIOQDIBSDetoursAtEgressFull(t *testing.T) {
	s, topo, caps, sched, hooks := buildCIOQ(t, DefaultCIOQ, core.NewRandom(), 1)
	s.MarkDetours = true
	detours := 0
	hooks.OnDetour = func(n packet.NodeID, p *packet.Packet, desired, chosen int) {
		if s.IsHostPort(chosen) {
			t.Error("detoured to host port")
		}
		detours++
	}
	host := topo.Hosts()[0]
	hp := hostPortOf(t, topo, s.ID, host)
	// Two inputs together deliver at 2x the egress drain rate, so the
	// 1-deep egress queue fills and later arrivals find it full, taking
	// the §4 detour path.
	for i := 0; i < 40; i++ {
		i := i
		sched.At(eventq.Time(i)*6*eventq.Microsecond, func() {
			s.Receive(dataPkt(packet.FlowID(i), host, 64), i%2)
		})
	}
	sched.Run()
	if detours == 0 || s.Detours == 0 {
		t.Fatal("no detours at full egress")
	}
	// Detoured packets left via the uplinks, CE-marked.
	found := false
	for pi, c := range caps {
		if pi == hp {
			continue
		}
		for _, p := range c.pkts {
			if p.Detours > 0 && p.CE {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no marked detoured packet observed on uplinks")
	}
}

func TestCIOQConfigValidation(t *testing.T) {
	for i, cfg := range []CIOQConfig{
		{IngressCap: 0, Speedup: 2},
		{IngressCap: 10, Speedup: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d should panic", i)
				}
			}()
			buildCIOQ(t, cfg, nil, 10)
		}()
	}
}

func TestCIOQSpeedupMatters(t *testing.T) {
	// With speedup 1 the crossbar is the bottleneck under 2-input
	// contention; speedup 2 keeps the egress link saturated, finishing
	// no slower.
	run := func(speedup int) eventq.Time {
		s, topo, caps, sched, _ := buildCIOQ(t, CIOQConfig{IngressCap: 1000, Speedup: speedup}, nil, 100)
		host := topo.Hosts()[0]
		hp := hostPortOf(t, topo, s.ID, host)
		for i := 0; i < 20; i++ {
			s.Receive(dataPkt(packet.FlowID(i), host, 64), 0)
			s.Receive(dataPkt(packet.FlowID(100+i), host, 64), 1)
		}
		sched.Run()
		if len(caps[hp].pkts) != 40 {
			t.Fatalf("speedup %d: delivered %d", speedup, len(caps[hp].pkts))
		}
		return sched.Now()
	}
	t1 := run(1)
	t2 := run(2)
	if t2 > t1 {
		t.Fatalf("speedup 2 finished later (%v) than speedup 1 (%v)", t2, t1)
	}
}

// TestForwardingParity runs each forwarding case through an output-queued
// switch and a CIOQ switch. Both are the same forwarding engine with a
// different queueing stage behind it, so TTL, routing, spraying and the
// detour at a full egress queue must behave alike on either.
func TestForwardingParity(t *testing.T) {
	edge := func(topo *topology.Topology) packet.NodeID { return topo.Switches()[2] }
	type rig struct {
		s     *Switch
		topo  *topology.Topology
		caps  map[int]*capture
		sched *eventq.Scheduler
		hooks *Hooks
		pl    *packet.Pool
	}
	// offer sends n packets to host 0, one every 6us alternating between
	// inputs 0 and 1 (twice the host port's drain rate, so its egress
	// queue fills on either architecture), and runs the network dry.
	offer := func(r rig, n int, mk func(p *packet.Packet)) []*packet.Packet {
		var sent []*packet.Packet
		for i := 0; i < n; i++ {
			i := i
			r.sched.At(eventq.Time(i)*6*eventq.Microsecond, func() {
				p := pooledPkt(r.pl, packet.FlowID(i), r.topo.Hosts()[0], 64)
				mk(p)
				sent = append(sent, p)
				r.s.Receive(p, i%2)
			})
		}
		r.sched.Run()
		return sent
	}
	cases := []struct {
		name   string
		at     func(*topology.Topology) packet.NodeID
		policy func() core.Policy
		qcap   int
		check  func(t *testing.T, r rig)
	}{
		{"ttl", edge, nil, 10, func(t *testing.T, r rig) {
			r.s.Receive(pooledPkt(r.pl, 1, r.topo.Hosts()[0], 1), 0)
			r.sched.Run()
			if r.s.Drops[DropTTL] != 1 || r.s.TotalDrops() != 1 || r.pl.Returned() != 1 {
				t.Fatalf("ttl drops %d of %d total, %d freed; want 1 each", r.s.Drops[DropTTL], r.s.TotalDrops(), r.pl.Returned())
			}
		}},
		// The FIB routes toward a host, not at it: the host's own node has
		// no next hop for packets addressed to itself.
		{"no route", func(topo *topology.Topology) packet.NodeID { return topo.Hosts()[0] }, nil, 10, func(t *testing.T, r rig) {
			r.s.Receive(pooledPkt(r.pl, 1, r.s.ID, 64), 0)
			r.sched.Run()
			if r.s.Drops[DropNoRoute] != 1 || r.s.TotalDrops() != 1 || r.pl.Returned() != 1 {
				t.Fatalf("no-route drops %d of %d total, %d freed; want 1 each", r.s.Drops[DropNoRoute], r.s.TotalDrops(), r.pl.Returned())
			}
		}},
		{"spray", edge, nil, 1000, func(t *testing.T, r rig) {
			r.s.PacketSpray = true
			for i := 0; i < 64; i++ {
				r.s.Receive(dataPkt(1, r.topo.Hosts()[2], 64), 2) // another rack: two uplinks
			}
			r.sched.Run()
			if up0, up1 := len(r.caps[0].pkts), len(r.caps[1].pkts); up0 == 0 || up1 == 0 || up0+up1 != 64 {
				t.Fatalf("spray sent one flow %d + %d over the uplinks, want both used, 64 in all", up0, up1)
			}
		}},
		// Capacity 2, so that a queue holding one packet still has a slot.
		{"full-egress detour", edge, func() core.Policy { return core.NewRandom() }, 2, func(t *testing.T, r rig) {
			r.s.MarkDetours = true
			hooked := 0
			// The DIBS rule (§2): detour only off a full queue, onto a
			// switch-facing port whose queue has room.
			r.hooks.OnDetour = func(_ packet.NodeID, p *packet.Packet, desired, d int) {
				hooked++
				if !r.s.QueueFull(desired) || r.s.QueueFull(d) || r.s.IsHostPort(d) {
					t.Errorf("flow %d detoured %d -> %d: desired full %v, chosen full %v, chosen faces a host %v",
						p.Flow, desired, d, r.s.QueueFull(desired), r.s.QueueFull(d), r.s.IsHostPort(d))
				}
			}
			sent := offer(r, 40, func(p *packet.Packet) { p.Trace = make([]packet.TraceHop, 0, 1) })
			if r.s.Detours == 0 || uint64(hooked) != r.s.Detours || r.s.TotalDrops() != 0 {
				t.Fatalf("%d detours, %d OnDetour calls, %d drops", r.s.Detours, hooked, r.s.TotalDrops())
			}
			for _, p := range sent {
				if len(p.Trace) != 1 || p.Trace[0].Node != r.s.ID {
					t.Fatalf("flow %d: trace %v, want one hop at %d", p.Flow, p.Trace, r.s.ID)
				}
				if hop := p.Trace[0]; hop.Detoured != (p.Detours > 0) || p.CE != (p.Detours > 0) || hop.Detoured && r.s.IsHostPort(hop.Port) {
					t.Fatalf("flow %d: %d detours, CE %v, trace hop %+v", p.Flow, p.Detours, p.CE, hop)
				}
			}
		}},
	}
	for _, tc := range cases {
		for _, arch := range []string{"oq", "cioq"} {
			t.Run(tc.name+"/"+arch, func(t *testing.T) {
				var policy core.Policy
				if tc.policy != nil {
					policy = tc.policy()
				}
				s, topo, caps, sched, hooks := buildSwitchAt(t, tc.at, policy, tc.qcap)
				if arch == "cioq" {
					s.EnableCIOQ(sched, DefaultCIOQ)
				}
				tc.check(t, rig{s, topo, caps, sched, hooks, packet.NewPool()})
			})
		}
	}
}
