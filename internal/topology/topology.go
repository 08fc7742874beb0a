// Package topology models data center network topologies as graphs of hosts
// and switches joined by full-duplex links, and computes shortest-path
// forwarding tables (FIBs) with ECMP next-hop sets. Every host hangs off
// exactly one switch, so the tables hold one row per such attachment switch
// and each host adds only its last hop.
//
// Builders are provided for the topologies in the DIBS paper: the K-ary
// fat-tree used for the NS-3 simulations (§5.3), the small Click/Emulab
// testbed tree (§5.2), and — for the §7 discussion of detouring on other
// topologies — JellyFish, HyperX and a linear chain.
package topology

import (
	"fmt"
	"math"
	"strconv"

	"dibs/internal/eventq"
	"dibs/internal/packet"
	"dibs/internal/rng"
)

// NodeKind distinguishes hosts from switches.
type NodeKind uint8

const (
	// Host is an end host: single NIC, runs transport endpoints.
	Host NodeKind = iota
	// Switch forwards packets between its ports.
	Switch
)

func (k NodeKind) String() string {
	if k == Host {
		return "host"
	}
	return "switch"
}

// Layer identifies a switch's layer in layered topologies (fat-tree, Click
// testbed). Non-layered topologies use LayerNone.
type Layer uint8

const (
	LayerNone Layer = iota
	LayerEdge
	LayerAggr
	LayerCore
)

func (l Layer) String() string {
	switch l {
	case LayerEdge:
		return "edge"
	case LayerAggr:
		return "aggr"
	case LayerCore:
		return "core"
	default:
		return "none"
	}
}

// Node is a vertex of the topology.
type Node struct {
	ID    packet.NodeID
	Kind  NodeKind
	Name  string
	Layer Layer
	Pod   int // pod index in fat-tree; -1 elsewhere
}

// Port describes one direction of attachment of a node to a link.
type Port struct {
	Peer     packet.NodeID // node on the other end
	PeerPort int           // port index at the peer
	RateBps  int64         // link bandwidth in bits/second (per direction)
	Delay    eventq.Time   // one-way propagation delay
}

// Topology is an immutable graph plus the derived routing state.
type Topology struct {
	Name  string
	nodes []Node
	ports [][]Port // ports[node][port]

	hosts    []packet.NodeID // all host node IDs, in construction order
	switches []packet.NodeID
	// hostIdx maps NodeID -> dense host index (-1 for switches) for
	// HostIndex. NodeIDs are dense, so a flat slice serves as the map.
	hostIdx []int32

	hostPortMask []uint64 // per node: bitmap of ports that face a host

	// Every host hangs off exactly one switch, its attachment switch
	// (finalize checks this), so the route to a host is its attachment
	// switch's route plus one last hop. The FIB and distance tables
	// therefore keep one row per distinct attachment switch, not per host:
	// a K=16 fat-tree has 1,344 nodes × 128 edge switches = 172k entries
	// where per-host rows would need 1.38M. The tables are flat arrays, not
	// per-(node,row) slices, so building them costs a handful of
	// allocations. Entry (node, row) lives at row*numNodes+node.
	//
	// fibDat holds every ECMP next-hop set back to back; entry i spans
	// fibDat[fibOff[i]:fibOff[i+1]].
	fibOff []int32
	fibDat []uint8
	// dist holds hop distance to the row's attachment switch, -1 when
	// unreachable.
	dist []int16
	// routes[id] locates host id in the tables. NextHops reads the row
	// offset, the attachment switch and the last hop together, so they
	// share one record rather than three per-host arrays.
	routes []route
}

// route is one host's key into the routing tables. Switches get noRoute.
type route struct {
	row    int32         // offset of the attachment switch's row in dist/fibOff
	attach packet.NodeID // the attachment switch
	last   [1]uint8      // the attachment switch's port facing the host
}

// noRoute is a switch's route record: a row offset so negative that
// NextHops or Distance toward a switch panics on the index, and an
// attachment switch no node matches.
var noRoute = route{row: math.MinInt32, attach: -1}

// builder accumulates nodes and links before Finalize.
type builder struct {
	name  string
	nodes []Node
	ports [][]Port
}

func newBuilder(name string) *builder {
	return &builder{name: name}
}

// name2/name3/name4 build "prefix<i>[-<j>[-<k>]]" node names without fmt:
// node naming was the last Sprintf on the Build hot path, and
// strconv.Itoa's small-int fast path makes each name a single string
// allocation instead of Sprintf's argument boxing plus formatting.
func name2(prefix string, i int) string { return prefix + strconv.Itoa(i) }
func name3(prefix string, i, j int) string {
	return prefix + strconv.Itoa(i) + "-" + strconv.Itoa(j)
}
func name4(prefix string, i, j, k int) string {
	return prefix + strconv.Itoa(i) + "-" + strconv.Itoa(j) + "-" + strconv.Itoa(k)
}

func (b *builder) addNode(kind NodeKind, name string, layer Layer, pod int) packet.NodeID {
	id := packet.NodeID(len(b.nodes))
	b.nodes = append(b.nodes, Node{ID: id, Kind: kind, Name: name, Layer: layer, Pod: pod})
	b.ports = append(b.ports, nil)
	return id
}

// reserve pre-allocates id's port slice for n links, replacing the
// 1->2->4->... append walk a degree-n switch would otherwise pay.
func (b *builder) reserve(id packet.NodeID, n int) {
	if cap(b.ports[id]) < n {
		b.ports[id] = make([]Port, 0, n)
	}
}

// link connects a and b with a bidirectional link. Port indices are assigned
// in call order.
func (b *builder) link(a, bb packet.NodeID, rateBps int64, delay eventq.Time) {
	ap := len(b.ports[a])
	bp := len(b.ports[bb])
	b.ports[a] = append(b.ports[a], Port{Peer: bb, PeerPort: bp, RateBps: rateBps, Delay: delay})
	b.ports[bb] = append(b.ports[bb], Port{Peer: a, PeerPort: ap, RateBps: rateBps, Delay: delay})
}

// finalize freezes the graph and computes routing tables. It panics, naming
// the host, if a host does not have exactly one port facing a switch:
// routing and Partition both rely on every host being single-homed.
func (b *builder) finalize() *Topology {
	t := &Topology{
		Name:    b.name,
		nodes:   b.nodes,
		ports:   b.ports,
		hostIdx: make([]int32, len(b.nodes)),
	}
	for i := range t.hostIdx {
		t.hostIdx[i] = -1
	}
	for _, n := range b.nodes {
		if n.Kind == Host {
			if ps := t.ports[n.ID]; len(ps) != 1 || t.nodes[ps[0].Peer].Kind != Switch {
				panic(fmt.Sprintf("topology: host %s must have exactly one port, facing a switch", n.Name))
			}
			t.hostIdx[n.ID] = int32(len(t.hosts))
			t.hosts = append(t.hosts, n.ID)
		} else {
			t.switches = append(t.switches, n.ID)
		}
	}
	t.hostPortMask = make([]uint64, len(t.nodes))
	for id, ports := range t.ports {
		if len(ports) > MaxPorts {
			panic(fmt.Sprintf("topology: node %d has %d ports; max %d", id, len(ports), MaxPorts))
		}
		for pi, p := range ports {
			if t.nodes[p.Peer].Kind == Host {
				t.hostPortMask[id] |= 1 << uint(pi)
			}
		}
	}
	t.computeRoutes()
	return t
}

// computeRoutes gives each distinct attachment switch a row, in order of
// first appearance in the host list, and fills it with one BFS from that
// switch. The BFS never expands a host, and no host is ever a next hop: a
// host's one neighbour is its attachment switch, so its distance is always
// that switch's plus one. A node's next hops are its ports toward a
// strictly closer neighbour, in port order. The loop visits (row, node)
// pairs in index order, so next-hop sets are emitted contiguously and the
// offset table is a running prefix sum: no per-pair allocations.
func (t *Topology) computeRoutes() {
	n := len(t.nodes)
	t.routes = make([]route, n)
	rowOf := make([]int32, n) // attachment switch -> its row + 1; 0 if none yet
	var attach []packet.NodeID
	for id := range t.routes {
		t.routes[id] = noRoute
	}
	for _, h := range t.hosts {
		p := t.ports[h][0]
		if rowOf[p.Peer] == 0 {
			attach = append(attach, p.Peer)
			rowOf[p.Peer] = int32(len(attach))
		}
		t.routes[h] = route{row: (rowOf[p.Peer] - 1) * int32(n), attach: p.Peer, last: [1]uint8{uint8(p.PeerPort)}}
	}
	a := len(attach)
	t.dist = make([]int16, n*a)
	for i := range t.dist {
		t.dist[i] = -1
	}
	t.fibOff = make([]int32, n*a+1)
	// Most nodes have one next hop per row; ECMP fan-out and the empty
	// entry at the row's own switch change that, but n*a is the right
	// starting capacity either way.
	t.fibDat = make([]uint8, 0, n*a)
	queue := make([]packet.NodeID, 0, n)
	for row, src := range attach {
		base := row * n
		dist := t.dist[base : base+n]
		// Pop via an index, not queue[1:]: re-slicing the head discards
		// capacity, so every push past it would reallocate.
		queue = append(queue[:0], src)
		dist[src] = 0
		for qi := 0; qi < len(queue); qi++ {
			cur := queue[qi]
			d := dist[cur] + 1
			for _, p := range t.ports[cur] {
				if dist[p.Peer] == -1 {
					dist[p.Peer] = d
					if t.nodes[p.Peer].Kind == Switch {
						queue = append(queue, p.Peer)
					}
				}
			}
		}
		for id := 0; id < n; id++ {
			if dist[id] > 0 {
				for pi, p := range t.ports[id] {
					if dist[p.Peer] == dist[id]-1 {
						t.fibDat = append(t.fibDat, uint8(pi))
					}
				}
			}
			t.fibOff[base+id+1] = int32(len(t.fibDat))
		}
	}
}

// --- accessors ---

// NumNodes returns the total node count.
func (t *Topology) NumNodes() int { return len(t.nodes) }

// Node returns the node descriptor for id.
func (t *Topology) Node(id packet.NodeID) Node { return t.nodes[id] }

// Hosts returns all host IDs in construction order. The slice must not be
// modified.
func (t *Topology) Hosts() []packet.NodeID { return t.hosts }

// Switches returns all switch IDs in construction order.
func (t *Topology) Switches() []packet.NodeID { return t.switches }

// Ports returns the port table of a node. The slice must not be modified.
func (t *Topology) Ports(id packet.NodeID) []Port { return t.ports[id] }

// HostIndex returns the dense index of a host node: its position in Hosts.
func (t *Topology) HostIndex(id packet.NodeID) int {
	hi := t.hostIdx[id]
	if hi < 0 {
		panic(fmt.Sprintf("topology: node %d is not a host", id))
	}
	return int(hi)
}

// NextHops returns the ECMP set of output ports at node leading along
// shortest paths to dst (a host): the one port facing dst at its attachment
// switch, nil at dst itself, and empty when unreachable. The slice aliases
// the shared routing tables and must not be modified.
func (t *Topology) NextHops(node, dst packet.NodeID) []uint8 {
	r := &t.routes[dst]
	if node == r.attach {
		return r.last[:]
	}
	if node == dst {
		return nil
	}
	i := int(r.row) + int(node)
	return t.fibDat[t.fibOff[i]:t.fibOff[i+1]]
}

// Distance returns the hop count (number of links) from node to host dst,
// or -1 if unreachable.
func (t *Topology) Distance(node, dst packet.NodeID) int {
	if node == dst {
		return 0
	}
	d := t.dist[int(t.routes[dst].row)+int(node)]
	if d < 0 {
		return -1
	}
	return int(d) + 1
}

// MaxPorts is the most ports a node may have: one bit each in a uint64
// port mask.
const MaxPorts = 64

// HostPortMask returns the bitmap of host-facing ports at node: bit i set
// means port i attaches to an end host. DIBS must never detour to those.
func (t *Topology) HostPortMask(id packet.NodeID) uint64 { return t.hostPortMask[id] }

// IsHostPort reports whether port pi of node faces an end host.
func (t *Topology) IsHostPort(id packet.NodeID, pi int) bool {
	return t.hostPortMask[id]&(1<<uint(pi)) != 0
}

// Partition maps every node to one of nShards scheduler shards for the
// sharded PDES engine. The invariants the engine relies on:
//
//   - Hosts are co-located with their edge switch (a host's single port
//     peers its switch), so host<->switch links are never shard crossings
//     and only switch<->switch links carry lookahead-bounded messages.
//   - Pod-aware topologies (fat-tree: Node.Pod >= 0 for aggregation/edge
//     switches and hosts) keep whole pods together — intra-pod traffic,
//     the bulk of a detour cascade, stays shard-local — while core
//     switches, which every pod talks to, are spread round-robin.
//   - Topologies without pods (jellyfish, linear, HyperX, Click) cut the
//     switch list into contiguous blocks in construction order, which for
//     random graphs is as good as any static cut.
//
// The map is a pure function of the topology and nShards: it never depends
// on traffic, so the same seed yields the same partition in every run.
// nShards must be in [1, len(Switches())].
func (t *Topology) Partition(nShards int) []int {
	if nShards < 1 || nShards > len(t.switches) {
		panic(fmt.Sprintf("topology: %d shards for %d switches", nShards, len(t.switches)))
	}
	part := make([]int, len(t.nodes))
	numPods := 0
	for _, sid := range t.switches {
		if p := t.nodes[sid].Pod; p >= numPods {
			numPods = p + 1
		}
	}
	core := 0
	for i, sid := range t.switches {
		switch {
		case numPods > 0 && t.nodes[sid].Pod >= 0:
			part[sid] = t.nodes[sid].Pod * nShards / numPods
		case numPods > 0:
			part[sid] = core % nShards
			core++
		default:
			part[sid] = i * nShards / len(t.switches)
		}
	}
	for _, hid := range t.hosts {
		part[hid] = part[t.ports[hid][0].Peer]
	}
	return part
}

// Neighbors returns the switch neighbors of a switch (deduplicated).
func (t *Topology) Neighbors(id packet.NodeID) []packet.NodeID {
	seen := make(map[packet.NodeID]bool)
	var out []packet.NodeID
	for _, p := range t.ports[id] {
		if t.nodes[p.Peer].Kind == Switch && !seen[p.Peer] {
			seen[p.Peer] = true
			out = append(out, p.Peer)
		}
	}
	return out
}

// --- builders ---

// LinkSpec bundles the physical parameters of links.
type LinkSpec struct {
	RateBps int64
	Delay   eventq.Time
}

// DefaultLink is the paper's setting: 1 Gbps with a small DC propagation
// delay.
var DefaultLink = LinkSpec{RateBps: 1_000_000_000, Delay: 1500 * eventq.Nanosecond}

// FatTree builds a K-ary fat-tree (K even): K pods, each with K/2 edge and
// K/2 aggregation switches; (K/2)^2 core switches; K/2 hosts per edge
// switch, for K^3/4 hosts total. All links use spec. oversub divides the
// capacity of switch-to-switch links (paper §5.5.4: factor f gives 1:f^2
// oversubscription); pass 1 for a full-bisection tree.
func FatTree(k int, spec LinkSpec, oversub int) *Topology {
	if k < 2 || k%2 != 0 {
		panic(fmt.Sprintf("topology: fat-tree K must be even and >= 2, got %d", k))
	}
	if oversub < 1 {
		panic("topology: oversub must be >= 1")
	}
	b := newBuilder(fmt.Sprintf("fattree-k%d", k))
	half := k / 2
	up := LinkSpec{RateBps: spec.RateBps / int64(oversub), Delay: spec.Delay}

	core := make([]packet.NodeID, half*half)
	for i := range core {
		core[i] = b.addNode(Switch, name2("core-", i), LayerCore, -1)
		b.reserve(core[i], k) // one link per pod
	}
	for pod := 0; pod < k; pod++ {
		aggr := make([]packet.NodeID, half)
		edge := make([]packet.NodeID, half)
		for a := 0; a < half; a++ {
			aggr[a] = b.addNode(Switch, name3("aggr-", pod, a), LayerAggr, pod)
			b.reserve(aggr[a], k) // half up to core, half down to edge
		}
		for e := 0; e < half; e++ {
			edge[e] = b.addNode(Switch, name3("edge-", pod, e), LayerEdge, pod)
			b.reserve(edge[e], k) // half up to aggr, half down to hosts
		}
		// Aggr a connects to core switches [a*half, (a+1)*half).
		for a := 0; a < half; a++ {
			for c := 0; c < half; c++ {
				b.link(aggr[a], core[a*half+c], up.RateBps, up.Delay)
			}
		}
		// Full bipartite edge<->aggr within the pod.
		for e := 0; e < half; e++ {
			for a := 0; a < half; a++ {
				b.link(edge[e], aggr[a], up.RateBps, up.Delay)
			}
		}
		// Hosts.
		for e := 0; e < half; e++ {
			for h := 0; h < half; h++ {
				hid := b.addNode(Host, name4("host-", pod, e, h), LayerNone, pod)
				b.link(edge[e], hid, spec.RateBps, spec.Delay)
			}
		}
	}
	return b.finalize()
}

// ClickTestbed builds the Emulab topology of §5.2: two aggregation switches,
// three edge switches (each connected to both aggregates), and two hosts per
// edge switch.
func ClickTestbed(spec LinkSpec) *Topology {
	b := newBuilder("click-testbed")
	aggr := []packet.NodeID{
		b.addNode(Switch, "aggr-0", LayerAggr, 0),
		b.addNode(Switch, "aggr-1", LayerAggr, 0),
	}
	for e := 0; e < 3; e++ {
		edge := b.addNode(Switch, name2("edge-", e), LayerEdge, 0)
		for _, a := range aggr {
			b.link(edge, a, spec.RateBps, spec.Delay)
		}
		for h := 0; h < 2; h++ {
			hid := b.addNode(Host, name3("host-", e, h), LayerNone, 0)
			b.link(edge, hid, spec.RateBps, spec.Delay)
		}
	}
	return b.finalize()
}

// Linear builds a chain of n switches with hostsPer hosts on each — the
// degenerate topology of the paper's footnote 10, where DIBS can only detour
// backwards along the chain.
func Linear(n, hostsPer int, spec LinkSpec) *Topology {
	if n < 1 {
		panic("topology: linear needs >= 1 switch")
	}
	b := newBuilder(fmt.Sprintf("linear-%d", n))
	sw := make([]packet.NodeID, n)
	for i := 0; i < n; i++ {
		sw[i] = b.addNode(Switch, name2("sw-", i), LayerNone, -1)
		if i > 0 {
			b.link(sw[i-1], sw[i], spec.RateBps, spec.Delay)
		}
		for h := 0; h < hostsPer; h++ {
			hid := b.addNode(Host, name3("host-", i, h), LayerNone, -1)
			b.link(sw[i], hid, spec.RateBps, spec.Delay)
		}
	}
	return b.finalize()
}

// Jellyfish builds a random regular graph of nSwitches switches with
// switchDegree switch-to-switch ports each and hostsPer hosts per switch
// (Singla et al.; discussed for DIBS in §7). The construction is the
// standard random matching with local repair; it is deterministic for a
// given seed. Random regular graphs are connected with high probability,
// but small unlucky instances are not, so the builder retries with derived
// seeds until the graph is connected (panicking after 50 attempts, which
// indicates an infeasible parameter choice).
func Jellyfish(nSwitches, switchDegree, hostsPer int, spec LinkSpec, seed int64) *Topology {
	for attempt := 0; attempt < 50; attempt++ {
		t := jellyfishOnce(nSwitches, switchDegree, hostsPer, spec, seed, attempt)
		if t.connected() {
			return t
		}
	}
	panic("topology: jellyfish failed to produce a connected graph in 50 attempts")
}

// connected reports whether every node can reach the first host.
func (t *Topology) connected() bool {
	if len(t.hosts) == 0 {
		return true
	}
	row := int(t.routes[t.hosts[0]].row)
	for id := range t.nodes {
		if t.dist[row+id] < 0 {
			return false
		}
	}
	return true
}

func jellyfishOnce(nSwitches, switchDegree, hostsPer int, spec LinkSpec, seed int64, attempt int) *Topology {
	if nSwitches*switchDegree%2 != 0 {
		panic("topology: jellyfish nSwitches*switchDegree must be even")
	}
	if switchDegree >= nSwitches {
		panic("topology: jellyfish degree must be < nSwitches")
	}
	rnd := rng.New(seed, fmt.Sprintf("topology/jellyfish/attempt%d", attempt))
	b := newBuilder(fmt.Sprintf("jellyfish-%d-%d", nSwitches, switchDegree))
	sw := make([]packet.NodeID, nSwitches)
	for i := range sw {
		sw[i] = b.addNode(Switch, name2("sw-", i), LayerNone, -1)
	}

	// Random matching over port stubs, retrying to avoid self-loops and
	// parallel edges; falls back to edge swaps when stuck. Adjacency is a
	// flat bitset over switch pairs (membership checks only, never
	// iterated, so determinism is unaffected).
	adj := make([]uint64, (nSwitches*nSwitches+63)/64)
	adjHas := func(a, b int) bool {
		i := a*nSwitches + b
		return adj[i>>6]&(1<<uint(i&63)) != 0
	}
	adjSet := func(a, b int) {
		i := a*nSwitches + b
		adj[i>>6] |= 1 << uint(i&63)
	}
	adjClear := func(a, b int) {
		i := a*nSwitches + b
		adj[i>>6] &^= 1 << uint(i&63)
	}
	deg := make([]int, nSwitches)
	type edge struct{ a, b int }
	var edges []edge
	stubs := make([]int, 0, nSwitches*switchDegree)
	for i := 0; i < nSwitches; i++ {
		for d := 0; d < switchDegree; d++ {
			stubs = append(stubs, i)
		}
	}
	rnd.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	connect := func(a, bb int) {
		adjSet(a, bb)
		adjSet(bb, a)
		deg[a]++
		deg[bb]++
		edges = append(edges, edge{a, bb})
	}
	var leftover []int
	for len(stubs) >= 2 {
		a := stubs[len(stubs)-1]
		bb := stubs[len(stubs)-2]
		stubs = stubs[:len(stubs)-2]
		if a == bb || adjHas(a, bb) {
			leftover = append(leftover, a, bb)
			continue
		}
		connect(a, bb)
	}
	// Repair leftovers by swapping with a random existing edge.
	for i := 0; i+1 < len(leftover); i += 2 {
		a, bb := leftover[i], leftover[i+1]
		repaired := false
		for try := 0; try < 100*len(edges) && !repaired; try++ {
			ei := rnd.Intn(len(edges))
			e := edges[ei]
			// Replace (e.a,e.b) with (a,e.a) and (bb,e.b) if valid.
			if a != e.a && bb != e.b && !adjHas(a, e.a) && !adjHas(bb, e.b) && a != bb {
				adjClear(e.a, e.b)
				adjClear(e.b, e.a)
				deg[e.a]--
				deg[e.b]--
				edges[ei] = edges[len(edges)-1]
				edges = edges[:len(edges)-1]
				connect(a, e.a)
				connect(bb, e.b)
				repaired = true
			}
		}
		// If repair failed the graph simply has two fewer links; Jellyfish
		// tolerates slight irregularity.
	}
	for _, e := range edges {
		b.link(sw[e.a], sw[e.b], spec.RateBps, spec.Delay)
	}
	for i := 0; i < nSwitches; i++ {
		for h := 0; h < hostsPer; h++ {
			hid := b.addNode(Host, name3("host-", i, h), LayerNone, -1)
			b.link(sw[i], hid, spec.RateBps, spec.Delay)
		}
	}
	return b.finalize()
}

// HyperX builds a 2-D HyperX: an sx-by-sy grid of switches where every
// switch links directly to every other switch sharing a row or column
// (Ahn et al.; discussed for DIBS in §7). hostsPer hosts attach per switch.
func HyperX(sx, sy, hostsPer int, spec LinkSpec) *Topology {
	if sx < 1 || sy < 1 {
		panic("topology: hyperx dims must be >= 1")
	}
	b := newBuilder(fmt.Sprintf("hyperx-%dx%d", sx, sy))
	sw := make([][]packet.NodeID, sx)
	for x := 0; x < sx; x++ {
		sw[x] = make([]packet.NodeID, sy)
		for y := 0; y < sy; y++ {
			sw[x][y] = b.addNode(Switch, name3("sw-", x, y), LayerNone, -1)
		}
	}
	for x := 0; x < sx; x++ {
		for y := 0; y < sy; y++ {
			// Row links to higher x; column links to higher y.
			for x2 := x + 1; x2 < sx; x2++ {
				b.link(sw[x][y], sw[x2][y], spec.RateBps, spec.Delay)
			}
			for y2 := y + 1; y2 < sy; y2++ {
				b.link(sw[x][y], sw[x][y2], spec.RateBps, spec.Delay)
			}
		}
	}
	for x := 0; x < sx; x++ {
		for y := 0; y < sy; y++ {
			for h := 0; h < hostsPer; h++ {
				hid := b.addNode(Host, name4("host-", x, y, h), LayerNone, -1)
				b.link(sw[x][y], hid, spec.RateBps, spec.Delay)
			}
		}
	}
	return b.finalize()
}
