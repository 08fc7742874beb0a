// Package switching models switches and the links between nodes. Each
// output port owns a queue (any discipline from internal/queue) and a
// transmitter that serializes one packet at a time at the link rate, then
// delivers it to the peer after the propagation delay. A hop costs
// one scheduler event, the delivery: the transmitter starts its next
// packet when the port is next read or delivers, at the instant the
// previous one finished (see OutPort), so every reader of a port goes
// through its synced methods rather than the queue itself.
//
// Switch is the one forwarding engine. It implements the paper's data
// plane: FIB lookup with flow-level ECMP (§3) or packet spraying (§6),
// DCTCP ECN marking in the queue discipline, TTL handling (§5.5.3), and —
// when a DIBS policy is installed — detouring instead of dropping when the
// desired output queue is full (§2). Behind the decision a switch is
// output-queued by default; two optional stages change how it queues, not
// how it forwards: Ethernet flow control (EnablePFC, pfc.go) and a
// combined input/output queued ingress with VOQs and a crossbar
// (EnableCIOQ, cioq.go, §4).
package switching

import (
	"fmt"
	"math/rand"

	"dibs/internal/core"
	"dibs/internal/eventq"
	"dibs/internal/packet"
	"dibs/internal/queue"
	"dibs/internal/rng"
	"dibs/internal/topology"
)

// Handler consumes packets arriving at a node.
type Handler interface {
	// Receive is invoked when a packet fully arrives at the node's port.
	// The handler takes ownership of p: it forwards, buffers, or frees it.
	Receive(p *packet.Packet, port int)
}

// DropReason classifies packet drops for the metrics layer.
type DropReason uint8

const (
	// DropOverflow: the output queue was full and no DIBS policy was
	// installed.
	DropOverflow DropReason = iota
	// DropNoDetour: the queue was full and DIBS found no eligible port
	// (all neighbors full — the §5.7 breaking regime), or TTL budget
	// exhausted detour options.
	DropNoDetour
	// DropTTL: the packet's TTL reached zero.
	DropTTL
	// DropNoRoute: the FIB had no entry for the destination.
	DropNoRoute
	// DropEvicted: a pFabric queue evicted this lower-priority packet.
	DropEvicted
	numDropReasons
)

// NumDropReasons is the number of distinct drop reasons.
const NumDropReasons = int(numDropReasons)

func (r DropReason) String() string {
	switch r {
	case DropOverflow:
		return "overflow"
	case DropNoDetour:
		return "no-detour"
	case DropTTL:
		return "ttl"
	case DropNoRoute:
		return "no-route"
	case DropEvicted:
		return "evicted"
	default:
		return fmt.Sprintf("DropReason(%d)", uint8(r))
	}
}

// Hooks are optional observation callbacks; nil fields are skipped. They
// exist for the metrics layer and must not mutate packets.
type Hooks struct {
	// OnDrop fires when node discards p for the given reason.
	OnDrop func(node packet.NodeID, p *packet.Packet, reason DropReason)
	// OnDetour fires when node detours p: the FIB wanted desired, DIBS
	// chose chosen.
	OnDetour func(node packet.NodeID, p *packet.Packet, desired, chosen int)
}

// OutPort is one output port: a queue plus a store-and-forward transmitter
// attached to a link.
//
// The transmitter has no completion event. When a packet starts
// serializing, start computes when it reaches the far end and schedules
// that delivery at once; the next packet starts on the port's next
// advance, at the instant its predecessor's last bit left. Every reader of
// the port's state advances it first, and so does every delivery on the
// link — the delivery of packet k comes no earlier than k's serialization
// end, where k+1 starts — so a start is always realized before anything
// can observe it. The completion keeps the (at, 0, seq) key its event
// would have carried, and the scheduler's Passed query orders it against
// same-instant readers. Clocked ports, whose completions act on state
// beyond their own queue, also arm a timer at each serialization end: a
// port with OnDequeue set, and a shared-buffer queue (its pool couples the
// switch's ports). A cross-shard link has no local delivery either; the
// shard driver syncs it at the end of every window (see SetRemote).
type OutPort struct {
	sched    *eventq.Scheduler
	Q        queue.Queue
	rateBps  int64
	delay    eventq.Time
	peer     Handler
	peerPort int

	// busy is set while the last started packet serializes: until
	// (end, 0, endSeq), the key of its completion, has passed. endBytes is
	// its wire size, counted into TxBytes when it completes.
	busy     bool
	end      eventq.Time
	endSeq   uint64
	endBytes int

	// fluidDelay adds the fluid-modeled standing queue's waiting time to
	// every delivery (hybrid mode, zero otherwise): a packet crossing a
	// fluid-saturated bottleneck sits behind the modeled flows' standing
	// queue exactly as it would behind their real packets. Because the
	// delay is charged at delivery (after serialization) while the
	// transmitter moves straight on to the next packet, a back-to-back
	// burst of n packets arrives at the far end at t + standing + i/rate —
	// byte-for-byte the FIFO schedule of a burst queued behind a standing
	// queue. Packets serialize at the full link rate: in FIFO order, fluid
	// bytes arriving after a real packet queue behind it, so present
	// packet traffic is never slowed by the fluid flows' future arrivals;
	// the fluid engine yields the capacity packets consume on its next
	// tick (measured arrivals). Changes only on fluid-engine ticks.
	fluidDelay eventq.Time

	// jitter, when jitterMax > 0, adds a uniform random per-packet
	// delivery delay in [0, jitterMax). Identical self-clocked flows
	// otherwise phase-lock on the deterministic ECN threshold and share
	// bandwidth unfairly — an artifact real switches' variable pipeline
	// latency prevents. The stream is port-local, so a port's jitter draws
	// are a function of its own packet sequence alone — the property that
	// keeps deliveries identical no matter how the network is sharded.
	jitter    rng.Stream
	jitterMax eventq.Time
	// lastArrival keeps deliveries FIFO under jitter.
	lastArrival eventq.Time
	// jitterDraw, prevArrival and delivery describe the last started
	// packet — its jitter, the FIFO clamp it was scheduled under, and its
	// delivery event — so that SetFluid can re-time it to a new fold.
	jitterDraw  eventq.Time
	prevArrival eventq.Time
	delivery    eventq.Timer

	// pri is the delivery ordering key for this link: every delivery event
	// is scheduled with it, so same-instant arrivals across the whole
	// network execute in a fixed per-link order rather than in scheduling
	// order — the tie-break that makes sharded runs byte-identical to
	// sequential ones. Assigned once at network assembly, unique per
	// directed link, always > 0 (ordinary events use pri 0 and run first).
	pri int64

	// remote, when set, replaces local delivery scheduling: the link's far
	// end lives in another shard, so when a packet starts serializing it
	// is snapshotted, its node returned to this shard's arena, and the
	// snapshot handed to the shard driver stamped with its arrival time
	// and link key.
	remote func(at eventq.Time, pri int64, w packet.Wire)
	// clocked marks a shared-buffer queue: its dequeues change what the
	// switch's other ports admit, so each completion runs at its instant.
	clocked bool

	// paused stops the transmitter from starting new packets (Ethernet
	// flow control); the in-flight serialization always completes.
	paused bool

	// inflight holds the packets started and not yet delivered, in
	// transmission order. deliver is bound once at construction, clock at
	// a clocked port's first start; per-packet closures were the hot
	// path's top allocator.
	inflight pktRing
	deliver  func()
	clock    func()
	// OnEnqueue, when set, observes every accepted packet after it is
	// queued but before the transmitter may pick it up; OnDequeue
	// observes every packet leaving the queue for the wire. Ethernet
	// flow control uses the pair for ingress buffer accounting.
	OnEnqueue func(p *packet.Packet)
	OnDequeue func(p *packet.Packet)

	// PausedTime accumulates how long the port sat paused with a
	// non-empty queue (head-of-line blocking metric).
	PausedTime  eventq.Time
	pausedSince eventq.Time

	// TxPackets and TxBytes count fully transmitted packets (current after
	// Sync). RxBytes counts bytes accepted into the queue — the port's
	// offered packet load. The fluid layer measures packet demand from
	// arrivals rather than service: a fold throttles the transmitter, so a
	// service-based measure would under-report demand in exact proportion
	// to the throttling and packet traffic could never reclaim bandwidth.
	TxPackets uint64
	TxBytes   uint64
	RxBytes   uint64
	// busyTime accumulates serialization time, for utilization metrics.
	busyTime eventq.Time
}

// NewOutPort creates a port transmitting at rateBps with one-way
// propagation delay, delivering into peer at peerPort.
func NewOutPort(sched *eventq.Scheduler, q queue.Queue, rateBps int64, delay eventq.Time, peer Handler, peerPort int) *OutPort {
	return InitOutPort(&OutPort{}, sched, q, rateBps, delay, peer, peerPort)
}

// InitOutPort initializes o in place. Network builders allocate their port
// structs en bloc (one slice for the whole topology) and wire each element
// here, so constructing a fat tree pays one allocation rather than one per
// port; NewOutPort is the single-port convenience wrapper over it.
func InitOutPort(o *OutPort, sched *eventq.Scheduler, q queue.Queue, rateBps int64, delay eventq.Time, peer Handler, peerPort int) *OutPort {
	if rateBps <= 0 {
		panic("switching: rate must be positive")
	}
	*o = OutPort{sched: sched, Q: q, rateBps: rateBps, delay: delay, peer: peer, peerPort: peerPort}
	_, o.clocked = q.(*queue.SharedQueue)
	o.deliver = o.onDeliver
	return o
}

// SetPeer rewires the port's receiving end (used during network assembly).
func (o *OutPort) SetPeer(peer Handler, peerPort int) {
	o.peer = peer
	o.peerPort = peerPort
}

// SetJitter enables uniform per-packet delivery jitter in [0, max), drawn
// from the port-local stream seeded with seed. Pass max 0 to disable.
func (o *OutPort) SetJitter(seed uint64, max eventq.Time) {
	o.jitter = rng.Stream(seed)
	o.jitterMax = max
}

// SetDeliveryPri assigns the link's same-instant delivery ordering key
// (used during network assembly; unique per directed link, > 0).
func (o *OutPort) SetDeliveryPri(pri int64) { o.pri = pri }

// SetRemote marks the link's far end as living in another scheduler shard:
// instead of scheduling a local delivery event, started packets are
// snapshotted and handed to emit with their arrival time and link key.
// Nothing local delivers on such a link, so the shard driver must Sync the
// port at the end of every window: a start realized there is still a full
// propagation delay ahead of the window it happened in.
func (o *OutPort) SetRemote(emit func(at eventq.Time, pri int64, w packet.Wire)) {
	o.remote = emit
}

// SerializationTime returns how long a packet of the given wire size
// occupies the transmitter at the link rate.
func (o *OutPort) SerializationTime(bytes int) eventq.Time {
	return eventq.Time(int64(bytes) * 8 * int64(eventq.Second) / o.rateBps)
}

// RateBps returns the nominal link rate.
func (o *OutPort) RateBps() int64 { return o.rateBps }

// SetFluid folds the fluid model's standing-queue delay into the port:
// every delivery waits it on top of propagation (see fluidDelay for why
// this — not a residual serialization rate — is the FIFO-faithful fold).
// A packet reads the fold when its last bit leaves, so the one still
// serializing is re-timed, keeping its jitter draw and FIFO clamp. Pass 0
// to clear.
func (o *OutPort) SetFluid(standing eventq.Time) {
	o.advance()
	if standing == o.fluidDelay {
		return
	}
	o.fluidDelay = standing
	if o.busy && o.delivery.Cancel() {
		at := max(o.end+o.delay+standing+o.jitterDraw, o.prevArrival)
		o.lastArrival = at
		o.delivery = o.sched.AtPri(at, o.pri, o.deliver)
	}
}

// Enqueue offers p to the port's queue and starts the transmitter if idle.
func (o *OutPort) Enqueue(p *packet.Packet) queue.Result {
	o.advance()
	r := o.Q.Enqueue(p)
	if r.Accepted {
		o.RxBytes += uint64(p.Size())
		if o.OnEnqueue != nil {
			o.OnEnqueue(p)
		}
		if !o.busy {
			o.start(o.sched.Now())
		}
	}
	return r
}

// SetPaused pauses or resumes the transmitter (Ethernet flow control).
func (o *OutPort) SetPaused(paused bool) {
	o.advance()
	if o.paused == paused {
		return
	}
	o.paused = paused
	if paused {
		o.pausedSince = o.sched.Now()
		return
	}
	o.PausedTime += o.sched.Now() - o.pausedSince
	if !o.busy {
		o.start(o.sched.Now())
	}
}

// Paused reports whether the transmitter is flow-control paused.
func (o *OutPort) Paused() bool { return o.paused }

// QueueLen returns the number of packets waiting behind the transmitter.
func (o *OutPort) QueueLen() int {
	o.advance()
	return o.Q.Len()
}

// QueueFull reports whether the queue would refuse a packet now.
func (o *OutPort) QueueFull() bool {
	o.advance()
	return o.Q.Full()
}

// BusyTime returns the serialization time of every packet started so far,
// for utilization metrics.
func (o *OutPort) BusyTime() eventq.Time {
	o.advance()
	return o.busyTime
}

// Sync catches the transmitter up to the current instant, so that the
// exported counters read what an event-driven transmitter would show.
func (o *OutPort) Sync() { o.advance() }

// advance completes every serialization whose end has passed and starts
// the next queued packet at that end, exactly where the completion event
// would have run.
func (o *OutPort) advance() {
	for o.busy && o.sched.Passed(o.end, o.endSeq) {
		o.busy = false
		o.TxPackets++
		o.TxBytes += uint64(o.endBytes)
		o.start(o.end)
	}
}

// start begins serializing the head-of-queue packet at virtual time t —
// now, or the end of the predecessor an advance is catching up on — and
// schedules its arrival at the far end.
func (o *OutPort) start(t eventq.Time) {
	if o.paused {
		return
	}
	p := o.Q.Dequeue()
	if p == nil {
		return
	}
	if o.OnDequeue != nil {
		o.OnDequeue(p)
	}
	ser := o.SerializationTime(p.Size())
	o.busyTime += ser
	o.busy = true
	o.end = t + ser
	o.endSeq = o.sched.Seq()
	o.endBytes = p.Size()
	if o.clocked || o.OnDequeue != nil {
		if o.clock == nil {
			o.clock = o.advance
		}
		o.sched.At(o.end, o.clock)
	}
	o.jitterDraw = 0
	if o.jitterMax > 0 {
		o.jitterDraw = eventq.Time(o.jitter.Int63n(int64(o.jitterMax)))
	}
	at := o.end + o.delay + o.fluidDelay + o.jitterDraw
	o.prevArrival = o.lastArrival
	if at < o.lastArrival {
		at = o.lastArrival // keep the link FIFO under jitter
	}
	o.lastArrival = at
	if o.remote != nil {
		// Cross-shard link: the arrival is at least one full propagation
		// delay ahead (the driver's lookahead), so the hand-off message
		// always lands beyond the current synchronization window. The
		// node goes back to this shard's arena; the far shard restores
		// the snapshot into one of its own.
		w := p.Snapshot()
		packet.Free(p)
		o.remote(at, o.pri, w)
		return
	}
	// Deliveries are scheduled in nondecreasing time (the FIFO clamp above)
	// and the scheduler breaks same-(time,pri) ties in insertion order, so
	// the wire ring pops in push order and onDeliver always dequeues the
	// right packet.
	o.inflight.push(p)
	o.delivery = o.sched.AtPri(at, o.pri, o.deliver)
}

// onDeliver fires when the oldest in-flight packet reaches the peer; it is
// also the transmitter's clock.
func (o *OutPort) onDeliver() {
	o.advance()
	o.peer.Receive(o.inflight.pop(), o.peerPort)
}

// pktRing is a never-shrinking power-of-two FIFO ring holding the packets
// in flight on a link.
type pktRing struct {
	buf  []*packet.Packet
	head int
	n    int
}

func (r *pktRing) push(p *packet.Packet) {
	if r.n == len(r.buf) {
		// Start at 16: a port that carries any traffic at all holds a few
		// packets in flight, so a smaller initial ring just schedules extra
		// grow steps for every active port in the network.
		grown := make([]*packet.Packet, max(16, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf = grown
		r.head = 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = p
	r.n++
}

func (r *pktRing) pop() *packet.Packet {
	if r.n == 0 {
		panic("switching: delivery with no packet in flight")
	}
	p := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return p
}

// Switch is a switch node: one forwarding engine over output-queued egress
// ports, with an optional CIOQ ingress stage between them (EnableCIOQ).
type Switch struct {
	ID    packet.NodeID
	topo  *topology.Topology
	ports []*OutPort

	policy core.Policy
	// MarkDetours sets CE on detoured packets (paper §5.3: detoured
	// packets are also marked). Enabled for ECN transports.
	MarkDetours bool
	// PacketSpray switches ECMP from flow-level to packet-level: each
	// packet picks a uniform random shortest-path next hop. §6 argues
	// even this cannot relieve incast (the last hop has one path); it is
	// implemented to quantify that claim.
	PacketSpray bool

	rng   *rand.Rand
	seed  uint64 // per-switch ECMP hash seed
	hooks *Hooks
	// pfc is non-nil when Ethernet flow control is enabled (§6
	// comparison); see pfc.go.
	pfc *pfcState
	// cioq is non-nil on a combined input/output queued switch (§4); see
	// cioq.go.
	cioq *cioqStage

	// Counters, indexable by DropReason.
	Drops     [NumDropReasons]uint64
	Detours   uint64
	RxPackets uint64
}

// NewSwitch creates an output-queued switch for node id of topo. ports must
// be indexed identically to topo.Ports(id). policy may be nil for plain
// drop-tail behavior. hooks may be nil.
func NewSwitch(id packet.NodeID, topo *topology.Topology, ports []*OutPort, policy core.Policy, rng *rand.Rand, hooks *Hooks) *Switch {
	if len(ports) != len(topo.Ports(id)) {
		panic(fmt.Sprintf("switching: switch %d has %d ports, topology says %d",
			id, len(ports), len(topo.Ports(id))))
	}
	s := &Switch{
		ID:     id,
		topo:   topo,
		ports:  ports,
		policy: policy,
		rng:    rng,
		seed:   core.FlowHash(packet.FlowID(id), 0xD1B5) | 1,
		hooks:  hooks,
	}
	return s
}

// Ports exposes the switch's output ports (for metrics sampling).
func (s *Switch) Ports() []*OutPort { return s.ports }

// --- core.SwitchView implementation ---

// NumPorts implements core.SwitchView.
func (s *Switch) NumPorts() int { return len(s.ports) }

// IsHostPort implements core.SwitchView.
func (s *Switch) IsHostPort(port int) bool { return s.topo.IsHostPort(s.ID, port) }

// QueueFull implements core.SwitchView.
func (s *Switch) QueueFull(port int) bool { return s.ports[port].QueueFull() }

// QueueLen implements core.SwitchView.
func (s *Switch) QueueLen(port int) int { return s.ports[port].QueueLen() }

// Receive implements Handler: the forwarding engine. It decides the output
// port — TTL, FIB lookup, ECMP or spray, and any detour taken before
// queueing — then queues the packet: on the egress port of an
// output-queued switch, in a VOQ of a CIOQ switch.
func (s *Switch) Receive(p *packet.Packet, inPort int) {
	s.RxPackets++
	p.Hops++
	p.TTL--
	if p.TTL <= 0 {
		s.drop(p, DropTTL)
		return
	}
	nhs := s.topo.NextHops(s.ID, p.Dst)
	if len(nhs) == 0 {
		s.drop(p, DropNoRoute)
		return
	}
	// Flow-level ECMP by default: all packets of a flow take the same
	// next hop at this switch (§3). Packet spraying randomizes per packet.
	var desired int
	if s.PacketSpray && len(nhs) > 1 {
		desired = int(nhs[s.rng.Intn(len(nhs))])
	} else {
		desired = int(nhs[core.FlowHash(p.Flow, s.seed)%uint64(len(nhs))])
	}

	if c := s.cioq; c != nil {
		// §4's detour at a full egress queue is decided before the packet
		// enters a VOQ. With no eligible port it keeps its desired port.
		detoured := false
		if s.policy != nil && s.ports[desired].QueueFull() {
			if d := s.policy.SelectDetour(s, p, desired, s.rng); d >= 0 {
				s.detour(p, desired, d)
				desired, detoured = d, true
			}
		}
		if c.ingressUsed[inPort] >= c.cfg.IngressCap {
			s.drop(p, DropOverflow) // the input's ingress buffer is full
			return
		}
		s.trace(p, desired, detoured)
		c.push(p, inPort, desired)
		return
	}

	if s.pfc != nil {
		p.Ingress = inPort
	}
	// The hop is recorded before Enqueue: an accepting port on an idle
	// cross-shard link hands p off (and frees it) inside Enqueue.
	s.trace(p, desired, false)
	r := s.ports[desired].Enqueue(p)
	if !r.Accepted {
		if s.policy == nil {
			s.drop(p, DropOverflow)
			return
		}
		d := s.policy.SelectDetour(s, p, desired, s.rng)
		if d < 0 {
			// Every neighbor's buffer is full too: the §5.7 breaking regime.
			s.drop(p, DropNoDetour)
			return
		}
		s.detour(p, desired, d)
		desired = d
		if p.Trace != nil {
			p.Trace[len(p.Trace)-1] = packet.TraceHop{Node: s.ID, Port: d, Detoured: true}
		}
		r = s.ports[d].Enqueue(p)
	}
	if !r.Accepted {
		// The policy verified the queue had room; in a single-threaded
		// simulator this cannot race, so refusal is a policy bug.
		panic(fmt.Sprintf("switching: detour port %d on switch %d refused packet", desired, s.ID))
	}
	if r.Evicted != nil {
		s.drop(r.Evicted, DropEvicted)
	}
}

// detour records that p leaves by port d instead of the desired port.
func (s *Switch) detour(p *packet.Packet, desired, d int) {
	p.Detours++
	if s.MarkDetours {
		p.CE = true
	}
	s.Detours++
	if s.hooks != nil && s.hooks.OnDetour != nil {
		s.hooks.OnDetour(s.ID, p, desired, d)
	}
}

func (s *Switch) trace(p *packet.Packet, port int, detoured bool) {
	if p.Trace != nil {
		p.Trace = append(p.Trace, packet.TraceHop{Node: s.ID, Port: port, Detoured: detoured})
	}
}

func (s *Switch) drop(p *packet.Packet, reason DropReason) {
	s.Drops[reason]++
	if s.hooks != nil && s.hooks.OnDrop != nil {
		s.hooks.OnDrop(s.ID, p, reason)
	}
	packet.Free(p)
}

// TotalDrops sums drops across reasons.
func (s *Switch) TotalDrops() uint64 {
	var t uint64
	for _, d := range s.Drops {
		t += d
	}
	return t
}

// QueuedPackets counts packets buffered in the switch: VOQs and egress
// queues (for conservation checks).
func (s *Switch) QueuedPackets() int {
	total := 0
	if s.cioq != nil {
		total = s.cioq.queued()
	}
	for _, op := range s.ports {
		total += op.QueueLen()
	}
	return total
}
