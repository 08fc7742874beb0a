package topology

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"dibs/internal/packet"
)

func TestFatTreeCounts(t *testing.T) {
	for _, k := range []int{2, 4, 8} {
		tp := FatTree(k, DefaultLink, 1)
		wantHosts := k * k * k / 4
		wantSwitches := k*k + (k/2)*(k/2) // k pods * k switches + core
		if len(tp.Hosts()) != wantHosts {
			t.Errorf("k=%d: hosts = %d, want %d", k, len(tp.Hosts()), wantHosts)
		}
		if len(tp.Switches()) != wantSwitches {
			t.Errorf("k=%d: switches = %d, want %d", k, len(tp.Switches()), wantSwitches)
		}
		// Every switch in a fat-tree has exactly k ports.
		for _, s := range tp.Switches() {
			if got := len(tp.Ports(s)); got != k {
				t.Errorf("k=%d: switch %s has %d ports, want %d", k, tp.Node(s).Name, got, k)
			}
		}
		// Every host has exactly one port.
		for _, h := range tp.Hosts() {
			if got := len(tp.Ports(h)); got != 1 {
				t.Errorf("k=%d: host has %d ports", k, got)
			}
		}
	}
}

// diameter is the maximum finite host-to-host distance.
func diameter(tp *Topology) int {
	max := 0
	for _, h := range tp.Hosts() {
		for _, g := range tp.Hosts() {
			if d := tp.Distance(h, g); d > max {
				max = d
			}
		}
	}
	return max
}

func TestFatTreeDiameter(t *testing.T) {
	tp := FatTree(4, DefaultLink, 1)
	// host-edge-aggr-core-aggr-edge-host = 6 links.
	if d := diameter(tp); d != 6 {
		t.Fatalf("fat-tree diameter = %d, want 6", d)
	}
}

func TestFatTreeIntraPodDistance(t *testing.T) {
	tp := FatTree(4, DefaultLink, 1)
	hosts := tp.Hosts()
	// Hosts under the same edge switch: distance 2.
	if d := tp.Distance(hosts[0], hosts[1]); d != 2 {
		t.Fatalf("same-edge distance = %d, want 2", d)
	}
	// Hosts in the same pod, different edges: distance 4.
	if d := tp.Distance(hosts[0], hosts[2]); d != 4 {
		t.Fatalf("same-pod distance = %d, want 4", d)
	}
	// Self distance is zero.
	if d := tp.Distance(hosts[0], hosts[0]); d != 0 {
		t.Fatalf("self distance = %d", d)
	}
}

func TestFatTreeECMPWidth(t *testing.T) {
	tp := FatTree(4, DefaultLink, 1)
	hosts := tp.Hosts()
	src, dst := hosts[0], hosts[len(hosts)-1] // different pods
	// At the source edge switch there should be k/2 = 2 upward next hops.
	edge := tp.Ports(src)[0].Peer
	if got := len(tp.NextHops(edge, dst)); got != 2 {
		t.Fatalf("edge ECMP width = %d, want 2", got)
	}
	// The destination's edge switch has exactly 1 next hop (the host port).
	dstEdge := tp.Ports(dst)[0].Peer
	nh := tp.NextHops(dstEdge, dst)
	if len(nh) != 1 {
		t.Fatalf("dst edge next hops = %d, want 1", len(nh))
	}
	if tp.Ports(dstEdge)[nh[0]].Peer != dst {
		t.Fatal("dst edge next hop does not lead to destination host")
	}
}

func TestNextHopsReduceDistance(t *testing.T) {
	for _, tp := range []*Topology{
		FatTree(4, DefaultLink, 1),
		ClickTestbed(DefaultLink),
		Linear(5, 2, DefaultLink),
		HyperX(3, 3, 2, DefaultLink),
		Jellyfish(10, 4, 2, DefaultLink, 42),
	} {
		for _, dst := range tp.Hosts() {
			for _, sw := range tp.Switches() {
				d := tp.Distance(sw, dst)
				if d < 0 {
					t.Fatalf("%s: switch unreachable from host", tp.Name)
				}
				nh := tp.NextHops(sw, dst)
				if len(nh) == 0 {
					t.Fatalf("%s: no next hops at %s toward %s", tp.Name, tp.Node(sw).Name, tp.Node(dst).Name)
				}
				for _, pi := range nh {
					peer := tp.Ports(sw)[pi].Peer
					if tp.Distance(peer, dst) != d-1 {
						t.Fatalf("%s: next hop does not reduce distance", tp.Name)
					}
				}
			}
		}
	}
}

func TestHostPortMask(t *testing.T) {
	tp := FatTree(4, DefaultLink, 1)
	for _, sw := range tp.Switches() {
		mask := tp.HostPortMask(sw)
		for pi, p := range tp.Ports(sw) {
			isHost := tp.Node(p.Peer).Kind == Host
			if tp.IsHostPort(sw, pi) != isHost {
				t.Fatalf("IsHostPort mismatch at %s port %d", tp.Node(sw).Name, pi)
			}
			if isHost != (mask&(1<<uint(pi)) != 0) {
				t.Fatalf("mask mismatch at %s port %d", tp.Node(sw).Name, pi)
			}
		}
		// Edge switches in K=4 have 2 host ports; aggr/core have none.
		n := tp.Node(sw)
		hostPorts := 0
		for pi := range tp.Ports(sw) {
			if tp.IsHostPort(sw, pi) {
				hostPorts++
			}
		}
		switch n.Layer {
		case LayerEdge:
			if hostPorts != 2 {
				t.Fatalf("edge %s host ports = %d, want 2", n.Name, hostPorts)
			}
		default:
			if hostPorts != 0 {
				t.Fatalf("%s %s host ports = %d, want 0", n.Layer, n.Name, hostPorts)
			}
		}
	}
}

func TestOversubscription(t *testing.T) {
	tp := FatTree(4, DefaultLink, 4)
	for _, sw := range tp.Switches() {
		for pi, p := range tp.Ports(sw) {
			if tp.IsHostPort(sw, pi) {
				if p.RateBps != DefaultLink.RateBps {
					t.Fatal("host link rate should be unchanged")
				}
			} else {
				if p.RateBps != DefaultLink.RateBps/4 {
					t.Fatalf("switch link rate = %d, want %d", p.RateBps, DefaultLink.RateBps/4)
				}
			}
		}
	}
}

func TestClickTestbed(t *testing.T) {
	tp := ClickTestbed(DefaultLink)
	if len(tp.Hosts()) != 6 {
		t.Fatalf("hosts = %d, want 6", len(tp.Hosts()))
	}
	if len(tp.Switches()) != 5 {
		t.Fatalf("switches = %d, want 5", len(tp.Switches()))
	}
	// Cross-rack distance: host-edge-aggr-edge-host = 4.
	hosts := tp.Hosts()
	if d := tp.Distance(hosts[0], hosts[2]); d != 4 {
		t.Fatalf("cross-rack distance = %d, want 4", d)
	}
	// Edge switches see 2 ECMP paths (via either aggr).
	edge := tp.Ports(hosts[0])[0].Peer
	if got := len(tp.NextHops(edge, hosts[2])); got != 2 {
		t.Fatalf("click ECMP width = %d, want 2", got)
	}
}

func TestLinear(t *testing.T) {
	tp := Linear(4, 1, DefaultLink)
	if len(tp.Hosts()) != 4 || len(tp.Switches()) != 4 {
		t.Fatalf("linear counts: %d hosts %d switches", len(tp.Hosts()), len(tp.Switches()))
	}
	hosts := tp.Hosts()
	// Ends of the chain: host-sw0-sw1-sw2-sw3-host = 5 links.
	if d := tp.Distance(hosts[0], hosts[3]); d != 5 {
		t.Fatalf("linear end-to-end distance = %d, want 5", d)
	}
}

func TestHyperX(t *testing.T) {
	tp := HyperX(3, 3, 2, DefaultLink)
	if len(tp.Switches()) != 9 {
		t.Fatalf("switches = %d", len(tp.Switches()))
	}
	if len(tp.Hosts()) != 18 {
		t.Fatalf("hosts = %d", len(tp.Hosts()))
	}
	// Each switch: (sx-1)+(sy-1)=4 switch links + 2 host links.
	for _, sw := range tp.Switches() {
		if got := len(tp.Ports(sw)); got != 6 {
			t.Fatalf("hyperx switch ports = %d, want 6", got)
		}
	}
	// Max switch-to-switch distance is 2 (row then column), so host pairs
	// are at most 4 apart.
	if d := diameter(tp); d != 4 {
		t.Fatalf("hyperx diameter = %d, want 4", d)
	}
}

func TestJellyfishRegularity(t *testing.T) {
	tp := Jellyfish(12, 4, 2, DefaultLink, 7)
	// Every switch should have close to 4 switch links plus 2 host links.
	totalSwLinks := 0
	for _, sw := range tp.Switches() {
		swLinks := 0
		for pi := range tp.Ports(sw) {
			if !tp.IsHostPort(sw, pi) {
				swLinks++
			}
		}
		if swLinks > 4 {
			t.Fatalf("jellyfish switch degree %d exceeds target 4", swLinks)
		}
		totalSwLinks += swLinks
	}
	// Matching may drop a couple of links under repair failure, but the
	// graph should be near-regular: at least 90% of target stubs matched.
	if totalSwLinks < 12*4*9/10 {
		t.Fatalf("jellyfish too irregular: %d of %d stubs", totalSwLinks, 12*4)
	}
}

func TestJellyfishDeterminism(t *testing.T) {
	a := Jellyfish(10, 3, 1, DefaultLink, 99)
	b := Jellyfish(10, 3, 1, DefaultLink, 99)
	for _, sw := range a.Switches() {
		pa, pb := a.Ports(sw), b.Ports(sw)
		if len(pa) != len(pb) {
			t.Fatal("jellyfish not deterministic: port counts differ")
		}
		for i := range pa {
			if pa[i].Peer != pb[i].Peer {
				t.Fatal("jellyfish not deterministic: peers differ")
			}
		}
	}
}

func TestBadParamsPanic(t *testing.T) {
	cases := []func(){
		func() { FatTree(3, DefaultLink, 1) },
		func() { FatTree(4, DefaultLink, 0) },
		func() { Linear(0, 1, DefaultLink) },
		func() { HyperX(0, 3, 1, DefaultLink) },
		func() { Jellyfish(5, 3, 1, DefaultLink, 1) }, // odd stubs
		func() { Jellyfish(4, 4, 1, DefaultLink, 1) }, // degree >= n
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestNeighbors(t *testing.T) {
	tp := FatTree(4, DefaultLink, 1)
	for _, sw := range tp.Switches() {
		n := tp.Node(sw)
		got := len(tp.Neighbors(sw))
		switch n.Layer {
		case LayerEdge, LayerCore:
			if got != 2 { // edge: 2 aggr; core: wait, core connects to 4 pods
				if n.Layer == LayerCore && got == 4 {
					break
				}
				t.Fatalf("%s %s neighbors = %d", n.Layer, n.Name, got)
			}
		case LayerAggr:
			if got != 4 { // 2 edges + 2 cores
				t.Fatalf("aggr neighbors = %d", got)
			}
		}
	}
}

// Property: symmetric port wiring — the peer's peer is always self.
func TestQuickPortSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		tp := Jellyfish(8, 3, 1, DefaultLink, seed)
		for id := packet.NodeID(0); int(id) < tp.NumNodes(); id++ {
			for pi, p := range tp.Ports(id) {
				back := tp.Ports(p.Peer)[p.PeerPort]
				if back.Peer != id || back.PeerPort != pi {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: distances obey triangle-ish consistency: dist(sw,dst) <=
// 1 + min over neighbors.
func TestQuickDistanceConsistency(t *testing.T) {
	f := func(seed int64) bool {
		tp := Jellyfish(8, 3, 2, DefaultLink, seed)
		for _, dst := range tp.Hosts() {
			for _, sw := range tp.Switches() {
				d := tp.Distance(sw, dst)
				best := 1 << 30
				for pi, p := range tp.Ports(sw) {
					if tp.IsHostPort(sw, pi) && p.Peer != dst {
						continue
					}
					if dd := tp.Distance(p.Peer, dst); dd >= 0 && dd < best {
						best = dd
					}
				}
				if d < 0 {
					// Unreachable (an unlucky random graph can be
					// disconnected): no neighbor may be reachable either.
					if best != 1<<30 {
						return false
					}
					continue
				}
				if d != best+1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestJellyfishAlwaysConnected(t *testing.T) {
	// Seeds that produced disconnected graphs before the retry logic must
	// now yield connected topologies.
	for _, seed := range []int64{-8353026557089901009, 0, 1, 999} {
		tp := Jellyfish(8, 3, 1, DefaultLink, seed)
		for _, sw := range tp.Switches() {
			if tp.Distance(sw, tp.Hosts()[0]) < 0 {
				t.Fatalf("seed %d: disconnected jellyfish", seed)
			}
		}
	}
}

// refRoutes is the original routing computation, kept as the reference the
// attachment-switch tables must reproduce: one BFS per destination host,
// with host-major tables where entry (node, host index) lives at
// hostIdx*numNodes+node and dist counts links to the host.
func refRoutes(t *Topology) (fibOff []int32, fibDat []uint8, dist []int16) {
	n := len(t.nodes)
	h := len(t.hosts)
	dist = make([]int16, n*h)
	for i := range dist {
		dist[i] = -1
	}
	fibOff = make([]int32, n*h+1)
	queue := make([]packet.NodeID, 0, n)
	for hi, dst := range t.hosts {
		base := hi * n
		dist := dist[base : base+n]
		queue = append(queue[:0], dst)
		dist[dst] = 0
		for qi := 0; qi < len(queue); qi++ {
			cur := queue[qi]
			d := dist[cur]
			for _, p := range t.ports[cur] {
				// Hosts do not forward transit traffic: BFS never expands
				// out of a non-destination host.
				if t.nodes[cur].Kind == Host && cur != dst {
					continue
				}
				if dist[p.Peer] == -1 {
					dist[p.Peer] = d + 1
					queue = append(queue, p.Peer)
				}
			}
		}
		for id := 0; id < n; id++ {
			if dist[id] > 0 {
				for pi, p := range t.ports[id] {
					if t.nodes[p.Peer].Kind == Host && p.Peer != dst {
						continue
					}
					if dist[p.Peer] == dist[id]-1 {
						fibDat = append(fibDat, uint8(pi))
					}
				}
			}
			fibOff[base+id+1] = int32(len(fibDat))
		}
	}
	return fibOff, fibDat, dist
}

// TestRoutesMatchReference holds NextHops (bytes and order) and Distance to
// refRoutes for every (node, host) pair on every topology family.
func TestRoutesMatchReference(t *testing.T) {
	topos := []*Topology{
		FatTree(2, DefaultLink, 1),
		FatTree(4, DefaultLink, 1),
		FatTree(8, DefaultLink, 1),
		FatTree(8, DefaultLink, 2),
		FatTree(16, DefaultLink, 1),
		ClickTestbed(DefaultLink),
		Linear(1, 3, DefaultLink),
		Linear(8, 4, DefaultLink),
		HyperX(4, 4, 4, DefaultLink),
	}
	for seed := int64(1); seed <= 5; seed++ {
		topos = append(topos, Jellyfish(16, 4, 4, DefaultLink, seed), Jellyfish(20, 6, 4, DefaultLink, seed))
	}
	for i, tp := range topos {
		fibOff, fibDat, dist := refRoutes(tp)
		n := tp.NumNodes()
		bad := 0
		for hi, dst := range tp.Hosts() {
			for node := 0; node < n && bad < 5; node++ {
				j := hi*n + node
				want := fibDat[fibOff[j]:fibOff[j+1]]
				got := tp.NextHops(packet.NodeID(node), dst)
				wantD, gotD := int(dist[j]), tp.Distance(packet.NodeID(node), dst)
				if !bytes.Equal(got, want) || gotD != wantD {
					t.Errorf("%s #%d: %s -> %s: NextHops %v, Distance %d; reference %v, %d",
						tp.Name, i, tp.Node(packet.NodeID(node)).Name, tp.Node(dst).Name, got, gotD, want, wantD)
					bad++
				}
			}
		}
	}
}

// TestFinalizeRefusesHostsNotSingleHomed: routing and Partition assume every
// host has exactly one port, facing a switch; finalize names a host that
// breaks the rule.
func TestFinalizeRefusesHostsNotSingleHomed(t *testing.T) {
	cases := map[string]func(b *builder, sw, h packet.NodeID){
		"unattached": func(b *builder, sw, h packet.NodeID) {},
		"dual-homed": func(b *builder, sw, h packet.NodeID) {
			b.link(sw, h, DefaultLink.RateBps, DefaultLink.Delay)
			b.link(sw, h, DefaultLink.RateBps, DefaultLink.Delay)
		},
		"host-to-host": func(b *builder, sw, h packet.NodeID) {
			g := b.addNode(Host, "host-peer", LayerNone, -1)
			b.link(h, g, DefaultLink.RateBps, DefaultLink.Delay)
		},
	}
	for name, wire := range cases {
		t.Run(name, func(t *testing.T) {
			b := newBuilder(name)
			sw := b.addNode(Switch, "sw-0", LayerNone, -1)
			h := b.addNode(Host, "host-bad", LayerNone, -1)
			wire(b, sw, h)
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "host host-bad ") {
					t.Fatalf("finalize panicked with %q, want a message naming the host", msg)
				}
			}()
			b.finalize()
		})
	}
}
