package switching

// Combined input/output queued (CIOQ) switch, the §4 alternative
// architecture: arriving packets wait in per-(input,output) virtual output
// queues (VOQs) drawn from a per-input ingress buffer; a crossbar with
// configurable speedup transfers them to small dedicated egress queues.
// DIBS slots into the forwarding engine exactly as §4 describes: "when a
// packet arrives at an input port, the forwarding engine determines its
// output port; if the desired output queue is full, [it] can detour the
// packet to another output port."

import (
	"fmt"
	"math/rand"

	"dibs/internal/core"
	"dibs/internal/eventq"
	"dibs/internal/packet"
	"dibs/internal/topology"
)

// CIOQConfig sizes the CIOQ data path.
type CIOQConfig struct {
	// IngressCap is the per-input buffer shared by that input's VOQs.
	IngressCap int
	// Speedup is the crossbar speedup relative to the line rate
	// (2 is the classical value that makes CIOQ emulate output queueing).
	Speedup int
}

// DefaultCIOQ matches common practice: 100-packet ingress per port,
// speedup 2.
var DefaultCIOQ = CIOQConfig{IngressCap: 100, Speedup: 2}

func (c *CIOQConfig) validate() {
	if c.IngressCap < 1 {
		panic("switching: CIOQ ingress capacity must be >= 1")
	}
	if c.Speedup < 1 {
		panic("switching: CIOQ speedup must be >= 1")
	}
}

// voq is a minimal packet FIFO (slice-backed; VOQ occupancy is bounded by
// the ingress buffer so growth is fine).
type voq struct {
	pkts []*packet.Packet
	head int
}

func (q *voq) push(p *packet.Packet) { q.pkts = append(q.pkts, p) }
func (q *voq) empty() bool           { return q.head >= len(q.pkts) }

func (q *voq) pop() *packet.Packet {
	p := q.pkts[q.head]
	q.pkts[q.head] = nil
	q.head++
	if q.head == len(q.pkts) {
		q.pkts = q.pkts[:0]
		q.head = 0
	}
	return p
}

// CIOQSwitch is an input/output-queued switch.
type CIOQSwitch struct {
	ID    packet.NodeID
	topo  *topology.Topology
	sched *eventq.Scheduler
	cfg   CIOQConfig

	// egress ports: small dedicated output queues plus transmitters.
	ports []*OutPort

	voqs        [][]voq // voqs[input][output]
	ingressUsed []int
	rr          []int  // per-output round-robin input pointer
	active      []bool // per-output transfer loop running
	// transferFns caches one self-rescheduling closure per output so the
	// crossbar loop does not allocate a fresh closure per packet.
	transferFns []func()

	policy      core.Policy
	MarkDetours bool
	rng         *rand.Rand
	seed        uint64
	hooks       *Hooks

	// Counters.
	Drops     [NumDropReasons]uint64
	Detours   uint64
	RxPackets uint64
	// IngressDrops counts packets lost to ingress-buffer overflow (a
	// failure mode output-queued switches do not have).
	IngressDrops uint64
}

// NewCIOQSwitch builds a CIOQ switch for node id. ports are the egress
// transmitters (small queues). policy may be nil.
func NewCIOQSwitch(id packet.NodeID, topo *topology.Topology, sched *eventq.Scheduler,
	ports []*OutPort, cfg CIOQConfig, policy core.Policy, rng *rand.Rand, hooks *Hooks) *CIOQSwitch {
	cfg.validate()
	if len(ports) != len(topo.Ports(id)) {
		panic(fmt.Sprintf("switching: CIOQ switch %d has %d ports, topology says %d",
			id, len(ports), len(topo.Ports(id))))
	}
	n := len(ports)
	s := &CIOQSwitch{
		ID:          id,
		topo:        topo,
		sched:       sched,
		cfg:         cfg,
		ports:       ports,
		voqs:        make([][]voq, n),
		ingressUsed: make([]int, n),
		rr:          make([]int, n),
		active:      make([]bool, n),
		policy:      policy,
		rng:         rng,
		seed:        core.FlowHash(packet.FlowID(id), 0xC109) | 1,
		hooks:       hooks,
	}
	for i := range s.voqs {
		s.voqs[i] = make([]voq, n)
	}
	s.transferFns = make([]func(), n)
	for out := range s.transferFns {
		out := out
		s.transferFns[out] = func() { s.transfer(out) }
	}
	return s
}

// Ports exposes the egress ports (for monitors).
func (s *CIOQSwitch) Ports() []*OutPort { return s.ports }

// --- core.SwitchView over the egress queues ---

// NumPorts implements core.SwitchView.
func (s *CIOQSwitch) NumPorts() int { return len(s.ports) }

// IsHostPort implements core.SwitchView.
func (s *CIOQSwitch) IsHostPort(port int) bool { return s.topo.IsHostPort(s.ID, port) }

// QueueFull implements core.SwitchView. The §4 detour predicate is the
// state of the dedicated egress queue.
func (s *CIOQSwitch) QueueFull(port int) bool { return s.ports[port].QueueFull() }

// QueueLen implements core.SwitchView.
func (s *CIOQSwitch) QueueLen(port int) int { return s.ports[port].QueueLen() }

// QueueCap implements core.SwitchView.
func (s *CIOQSwitch) QueueCap(port int) int {
	if c, ok := s.ports[port].Q.(interface{ Capacity() int }); ok {
		return c.Capacity()
	}
	return 0
}

// Receive implements Handler: the CIOQ forwarding engine.
func (s *CIOQSwitch) Receive(p *packet.Packet, inPort int) {
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
	desired := int(nhs[core.FlowHash(p.Flow, s.seed)%uint64(len(nhs))])

	// §4 DIBS hook: the forwarding engine checks the desired egress queue
	// and detours before the packet ever enters a VOQ.
	if s.policy != nil && s.ports[desired].QueueFull() {
		d := s.policy.SelectDetour(s, p, desired, s.rng)
		if d >= 0 {
			p.Detours++
			if s.MarkDetours {
				p.CE = true
			}
			s.Detours++
			if s.hooks != nil && s.hooks.OnDetour != nil {
				s.hooks.OnDetour(s.ID, p, desired, d)
			}
			desired = d
		}
		// If no eligible port, fall through: the VOQ may still hold it.
	}

	if s.ingressUsed[inPort] >= s.cfg.IngressCap {
		s.IngressDrops++
		s.drop(p, DropOverflow)
		return
	}
	s.ingressUsed[inPort]++
	s.voqs[inPort][desired].push(p)
	s.startTransfer(desired)
}

// startTransfer kicks the per-output crossbar loop.
func (s *CIOQSwitch) startTransfer(out int) {
	if s.active[out] {
		return
	}
	s.active[out] = true
	s.transfer(out)
}

// transfer moves one packet from a VOQ to the egress queue, then schedules
// itself after the crossbar transfer time (packet serialization divided by
// the speedup). It idles when no VOQ feeds this output; when the egress
// queue is momentarily full it waits one MTU transfer time and retries —
// with DIBS, arrivals were already detoured before entering the VOQs, so
// this wait is the input-side backpressure a real CIOQ exhibits.
func (s *CIOQSwitch) transfer(out int) {
	in := s.pickInput(out)
	if in < 0 {
		s.active[out] = false
		return
	}
	if s.ports[out].QueueFull() {
		s.sched.After(s.cellTime(packet.DefaultMTU), s.transferFns[out])
		return
	}
	p := s.voqs[in][out].pop()
	s.ingressUsed[in]--
	s.rr[out] = (in + 1) % len(s.ports)
	r := s.ports[out].Enqueue(p)
	if !r.Accepted {
		// Cannot happen: fullness was checked above and the simulator is
		// single-threaded.
		panic("switching: CIOQ egress refused after fullness check")
	}
	if p.Trace != nil {
		p.Trace = append(p.Trace, packet.TraceHop{Node: s.ID, Port: out, Detoured: false})
	}
	s.sched.After(s.cellTime(p.Size()), s.transferFns[out])
}

// pickInput round-robins over inputs with a waiting packet for out.
func (s *CIOQSwitch) pickInput(out int) int {
	n := len(s.ports)
	for k := 0; k < n; k++ {
		in := (s.rr[out] + k) % n
		if !s.voqs[in][out].empty() {
			return in
		}
	}
	return -1
}

// cellTime is the crossbar occupancy for a packet of the given wire size.
func (s *CIOQSwitch) cellTime(bytes int) eventq.Time {
	t := s.ports[0].SerializationTime(bytes) / eventq.Time(s.cfg.Speedup)
	if t < 1 {
		t = 1
	}
	return t
}

func (s *CIOQSwitch) drop(p *packet.Packet, reason DropReason) {
	s.Drops[reason]++
	if s.hooks != nil && s.hooks.OnDrop != nil {
		s.hooks.OnDrop(s.ID, p, reason)
	}
	packet.Free(p)
}

// TotalDrops sums drops across reasons.
func (s *CIOQSwitch) TotalDrops() uint64 {
	var t uint64
	for _, d := range s.Drops {
		t += d
	}
	return t
}

// QueuedPackets counts packets buffered in VOQs plus egress queues (for
// conservation checks).
func (s *CIOQSwitch) QueuedPackets() int {
	total := 0
	for _, used := range s.ingressUsed {
		total += used
	}
	for _, op := range s.ports {
		total += op.QueueLen()
	}
	return total
}
