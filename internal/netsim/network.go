package netsim

import (
	"fmt"
	"strconv"

	"dibs/internal/core"
	"dibs/internal/eventq"
	"dibs/internal/host"
	"dibs/internal/metrics"
	"dibs/internal/packet"
	"dibs/internal/pdes"
	"dibs/internal/queue"
	"dibs/internal/rng"
	"dibs/internal/switching"
	"dibs/internal/topology"
	"dibs/internal/trace"
	"dibs/internal/transport"
)

// Network is a fully assembled simulation.
type Network struct {
	Cfg Config
	// Sched is shard 0's scheduler — with Shards <= 1 (the default), the
	// only one, i.e. the plain sequential engine.
	Sched *eventq.Scheduler
	Topo  *topology.Topology
	// Pool is shard 0's packet arena: every segment/ACK the transports
	// emit is borrowed from its shard's arena and returned on a terminal
	// path (cross-shard hops re-home the packet, see packet.Wire).
	Pool *packet.Pool
	// Switches is indexed by node ID (nil entries for hosts).
	Switches []*switching.Switch
	// HostsByID is indexed by node ID (nil entries for switches).
	HostsByID []*host.Host
	// Collector is shard 0's collector; Run folds every other shard's
	// into it.
	Collector *metrics.Collector

	// shards holds one scheduler/arena/collector group per PDES shard
	// (exactly one with Shards <= 1); part maps every node ID to its
	// shard.
	shards []*shardCtx
	part   []int
	// inLinks holds the receiving end of every cross-shard link, indexed
	// by receiving node and port (nil without shards).
	inLinks    [][]*inLink
	shardStats pdes.Stats

	// fluid is non-nil in fluid/hybrid mode (see fluid.go).
	fluid *fluidState

	// flows is the run's endpoint table, shared by every host and shard,
	// and tc the transport settings every flow gets; installSchedule sets
	// both up.
	flows host.Flows
	tc    transport.Config
}

// Build constructs the network described by cfg. It panics with
// Validate's error when cfg is inconsistent.
func Build(cfg Config) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := &Network{Cfg: cfg}
	n.Topo = buildTopo(cfg)

	// Shard layout: always the same construction, with Shards <= 1 being
	// the one-shard (sequential) special case. The partition is a pure
	// function of the topology, so a given node sits in the same shard on
	// every run.
	nsh := 1
	if cfg.Shards > 1 {
		nsh = cfg.Shards
		if nsw := len(n.Topo.Switches()); nsh > nsw {
			nsh = nsw
		}
	}
	n.part = n.Topo.Partition(nsh)
	n.shards = make([]*shardCtx, nsh)
	for i := range n.shards {
		sc := &shardCtx{id: i, sched: eventq.NewScheduler(), pool: packet.NewPool()}
		sc.coll = metrics.NewCollector(sc.sched)
		if cfg.TraceEvents {
			sc.coll.Events = trace.NewRecorder(sc.sched)
		}
		n.shards[i] = sc
	}
	n.Sched = n.shards[0].sched
	n.Pool = n.shards[0].pool
	n.Collector = n.shards[0].coll

	nn := n.Topo.NumNodes()
	n.Switches = make([]*switching.Switch, nn)
	n.HostsByID = make([]*host.Host, nn)

	// finishPort applies the per-port policies every link needs: the
	// port-local jitter stream (a function of (node, port) alone, so draws
	// do not depend on execution interleaving), the link's same-instant
	// delivery ordering key, and — when the far end lives in another
	// shard — the outbox hand-off instead of local delivery.
	finishPort := func(op *switching.OutPort, nid packet.NodeID, pi int, peer packet.NodeID, peerPort int) *switching.OutPort {
		if cfg.ForwardJitter > 0 {
			op.SetJitter(rng.Derive2(uint64(cfg.Seed), "link/jitter", int(nid), pi), cfg.ForwardJitter)
		}
		op.SetDeliveryPri(linkPri(peer, peerPort))
		if n.part[nid] != n.part[peer] {
			src := n.shards[n.part[nid]]
			op.SetRemote(n.makeEmit(src, n.shards[n.part[peer]], peer, peerPort))
			src.remote = append(src.remote, op)
		}
		return op
	}

	// Port and host structs come from two en-bloc slices: a K=8 fat tree
	// otherwise pays ~900 separate struct allocations before the first
	// packet moves, which dominates short-run benchmarks.
	nPorts := len(n.Topo.Hosts()) // one NIC each
	for _, sid := range n.Topo.Switches() {
		nPorts += len(n.Topo.Ports(sid))
	}
	portBlock := make([]switching.OutPort, nPorts)
	nextPort := func() *switching.OutPort {
		op := &portBlock[0]
		portBlock = portBlock[1:]
		return op
	}
	hostBlock := make([]host.Host, len(n.Topo.Hosts()))
	// DropTail queues (every NIC, and every switch port in drop-tail
	// configs) carve from one arena, like the port and host blocks above.
	var qArena queue.DropTailArena

	// Hosts first (their NICs are simple), then switches.
	const nicQueuePkts = 100_000 // a deep host FIFO (see HostMarkAtPkts)
	for hi, hid := range n.Topo.Hosts() {
		h := hostBlock[hi].Init(hid)
		sh := n.shards[n.part[hid]]
		p := n.Topo.Ports(hid)[0]
		nic := finishPort(switching.InitOutPort(nextPort(), sh.sched, qArena.New(nicQueuePkts, cfg.HostMarkAtPkts),
			p.RateBps, p.Delay, nil, p.PeerPort), hid, 0, p.Peer, p.PeerPort)
		h.NIC = nic
		h.OnDeliver = sh.coll.OnDeliver
		h.TraceEveryNth = cfg.TraceEveryNth
		n.HostsByID[hid] = h
	}
	for _, sid := range n.Topo.Switches() {
		sh := n.shards[n.part[sid]]
		ports := make([]*switching.OutPort, 0, len(n.Topo.Ports(sid)))
		var pool *queue.SharedPool
		if cfg.Buffer == BufferShared {
			// Dynamic buffer allocation (§5.5.2): ~1.7 MB of 1500 B packets
			// per switch, threshold alpha 1, 10 packets reserved per port.
			pool = queue.NewSharedPool(1133, 1, 10)
		}
		for pi, p := range n.Topo.Ports(sid) {
			ports = append(ports, finishPort(switching.InitOutPort(nextPort(), sh.sched, n.makeQueue(pool, &qArena),
				p.RateBps, p.Delay, nil, p.PeerPort), sid, pi, p.Peer, p.PeerPort))
		}
		// strconv, not Sprintf: same stream name, so the derived seed (and
		// every golden) is unchanged, without the printf machinery per switch.
		swRng := rng.New(cfg.Seed, "switch/"+strconv.Itoa(int(sid)))
		// Each shard's switches report into that shard's collector.
		sw := switching.NewSwitch(sid, n.Topo, ports, n.makePolicy(), swRng, sh.coll.Hooks())
		sw.MarkDetours = cfg.MarkAtPkts > 0
		sw.PacketSpray = cfg.PacketSpray
		if cfg.Arch == ArchCIOQ {
			sw.EnableCIOQ(sh.sched)
		}
		n.Switches[sid] = sw
	}
	n.connect()

	if cfg.PFC {
		n.enablePFC()
	}
	if cfg.mode() != ModePacket {
		n.buildFluid()
	}
	for i, sh := range n.shards {
		if cfg.UtilWindow > 0 {
			sh.coll.Util = metrics.NewLinkUtilMonitor(sh.sched, cfg.UtilWindow, n.switchPorts(i))
		}
		if cfg.BufferSamplePeriod > 0 {
			sh.coll.Buf = metrics.NewBufferSampler(sh.sched, cfg.BufferSamplePeriod, n.switchPorts(i))
		}
	}
	return n
}

// connect points every port, and every cross-shard link's receiving end,
// at the node on its far side. Build calls it once every host and switch
// exists: a port is made before its peer, so it cannot be wired then.
func (n *Network) connect() {
	node := func(id packet.NodeID) switching.Handler {
		if h := n.HostsByID[id]; h != nil {
			return h
		}
		return n.Switches[id]
	}
	for _, hid := range n.Topo.Hosts() {
		p := n.Topo.Ports(hid)[0]
		n.HostsByID[hid].NIC.SetPeer(node(p.Peer), p.PeerPort)
	}
	for _, sid := range n.Topo.Switches() {
		for pi, op := range n.Switches[sid].Ports() {
			p := n.Topo.Ports(sid)[pi]
			op.SetPeer(node(p.Peer), p.PeerPort)
		}
	}
	for id, links := range n.inLinks {
		for _, l := range links {
			if l != nil {
				l.to = node(packet.NodeID(id))
			}
		}
	}
}

// switchPorts lists every switch output port for shard i's monitors, which
// sample only the ones the shard owns (see metrics.PortRef).
func (n *Network) switchPorts(i int) []metrics.PortRef {
	var out []metrics.PortRef
	for _, sid := range n.Topo.Switches() {
		for pi, op := range n.Switches[sid].Ports() {
			if n.part[sid] != i {
				op = nil
			}
			out = append(out, metrics.PortRef{Node: sid, Port: pi, Out: op})
		}
	}
	return out
}

// enablePFC turns on Ethernet flow control everywhere: each switch pauses
// the upstream transmitter (switch port or host NIC) of an ingress whose
// buffered packets reach switching's xoff threshold, and resumes it below
// xon. Control frames take one link delay.
func (n *Network) enablePFC() {
	for _, sid := range n.Topo.Switches() {
		sid := sid
		n.Switches[sid].EnablePFC(func(inPort int, paused bool) {
			p := n.Topo.Ports(sid)[inPort]
			n.Sched.After(p.Delay, func() {
				if h := n.HostsByID[p.Peer]; h != nil {
					h.NIC.SetPaused(paused)
					return
				}
				n.Switches[p.Peer].Ports()[p.PeerPort].SetPaused(paused)
			})
		})
	}
}

// PFCPauses sums PAUSE frames emitted across all switches.
func (n *Network) PFCPauses() uint64 {
	var total uint64
	for _, sid := range n.Topo.Switches() {
		total += n.Switches[sid].PFCPausesSent()
	}
	return total
}

func buildTopo(cfg Config) *topology.Topology {
	spec := topology.LinkSpec{RateBps: cfg.LinkRate, Delay: cfg.LinkDelay}
	switch cfg.Topo {
	case TopoFatTree:
		return topology.FatTree(cfg.FatTreeK, spec, cfg.Oversub)
	case TopoClick:
		return topology.ClickTestbed(spec)
	case TopoLinear:
		return topology.Linear(cfg.LinearSwitches, cfg.LinearHostsPer, spec)
	case TopoJellyfish:
		return topology.Jellyfish(cfg.JellyfishSwitches, cfg.JellyfishDegree,
			cfg.JellyfishHostsPer, spec, cfg.Seed)
	case TopoHyperX:
		return topology.HyperX(cfg.HyperXX, cfg.HyperXY, cfg.HyperXHostsPer, spec)
	default:
		panic("netsim: unreachable topology kind")
	}
}

func (n *Network) makeQueue(pool *queue.SharedPool, arena *queue.DropTailArena) queue.Queue {
	cfg := &n.Cfg
	switch cfg.Buffer {
	case BufferDropTail:
		return arena.New(cfg.BufferPkts, cfg.MarkAtPkts)
	case BufferInfinite:
		return queue.NewInfinite(cfg.MarkAtPkts)
	case BufferShared:
		return queue.NewSharedQueue(pool, cfg.MarkAtPkts)
	case BufferPFabric:
		return queue.NewPFabric(cfg.BufferPkts)
	default:
		panic("netsim: unreachable buffer mode")
	}
}

func (n *Network) makePolicy() core.Policy {
	if !n.Cfg.DIBS {
		return nil
	}
	switch n.Cfg.Policy {
	case PolicyRandom:
		return core.NewRandom()
	case PolicyLoadAware:
		return core.NewLoadAware()
	case PolicyFlowBased:
		return core.NewFlowBased()
	default:
		panic("netsim: unreachable policy")
	}
}

// openReceiver creates flow f's receiving endpoint at its destination
// host, which lives in shard sh. A flow's receiver is always created
// first, so in fluid modes openSender finds it in the endpoint table.
func (n *Network) openReceiver(sh *shardCtx, f *flowStart) {
	dstHost := n.HostsByID[f.dst]
	rcv := transport.InitReceiver(carve(&sh.rcvBlock), transport.Env{Sched: sh.sched, Pool: sh.pool, Emit: dstHost.SendFn()},
		n.tc, f.id, f.dst, f.bytes)
	rcv.OnComplete = sh.rcvDone
	dstHost.AddReceiver(rcv)
	if f.class == metrics.ClassLong {
		sh.longRx = append(sh.longRx, rcv)
	}
}

// openSender creates flow f's sending endpoint at its source host, which
// lives in shard sh, and starts it: as packets, or — when the fluid layer
// takes the flow — under rate custody.
func (n *Network) openSender(sh *shardCtx, f *flowStart) {
	srcHost := n.HostsByID[f.src]
	snd := transport.InitSender(carve(&sh.sndBlock), transport.Env{Sched: sh.sched, Pool: sh.pool, Emit: srcHost.SendFn()},
		n.tc, f.id, f.src, f.dst, f.bytes)
	snd.OnComplete = sh.sndDone
	srcHost.AddSender(snd)
	sh.senders = append(sh.senders, snd)
	if ev := sh.coll.Events; ev != nil {
		ev.Record(trace.Event{Kind: trace.KindFlowStart, Node: f.src, Flow: f.id, Seq: -1,
			Detail: fmt.Sprintf("%s %dB -> %d", f.class, f.bytes, f.dst)})
	}
	if n.fluid != nil && n.fluid.registerFlow(snd, n.flows.Receiver(f.id)) {
		return
	}
	snd.Start()
}

// Run records the configured workloads' arrival schedule, replays it on the
// network for Duration+Drain — sequentially with one shard, under the
// conservative window protocol otherwise — and returns the results.
func (n *Network) Run() *Results {
	return n.run(recordSchedule(&n.Cfg, n.Topo.Hosts()))
}

// run replays schedule s on the network for Duration+Drain and returns the
// results.
func (n *Network) run(s *flowSchedule) *Results {
	cfg := &n.Cfg
	n.installSchedule(s)
	for _, sh := range n.shards {
		sh.coll.Util.Start()
		sh.coll.Buf.Start()
	}

	end := cfg.Duration + cfg.Drain
	if len(n.shards) == 1 {
		n.Sched.RunUntil(end)
	} else {
		n.runSharded(end)
	}
	// Transmitters start packets lazily (switching.OutPort): catch every
	// port up to end so its queue and counters read as of the run's end.
	n.eachPort((*switching.OutPort).Sync)
	return n.results(end)
}

// eachPort calls fn on every transmitter: the host NICs, then the switch
// ports.
func (n *Network) eachPort(fn func(*switching.OutPort)) {
	for _, h := range n.HostsByID {
		if h != nil {
			fn(h.NIC)
		}
	}
	for _, sw := range n.Switches {
		if sw != nil {
			for _, op := range sw.Ports() {
				fn(op)
			}
		}
	}
}
