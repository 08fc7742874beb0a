package switching

// Combined input/output queued (CIOQ) ingress stage, the §4 alternative
// architecture: forwarded packets wait in per-(input,output) virtual output
// queues (VOQs) drawn from a per-input ingress buffer; a crossbar with
// speedup 2 transfers them to the switch's egress ports, which become small
// dedicated output queues. The forwarding decision stays the
// Switch's own, as §4 describes: "when a packet arrives at an input port,
// the forwarding engine determines its output port; if the desired output
// queue is full, [it] can detour the packet to another output port."

import (
	"dibs/internal/core"
	"dibs/internal/eventq"
	"dibs/internal/packet"
)

// The CIOQ data path's size, as common practice builds it.
const (
	// ingressCap is the per-input buffer, in packets, shared by that
	// input's VOQs.
	ingressCap = 100
	// speedup is the crossbar speedup relative to the line rate: 2 is the
	// classical value that makes CIOQ emulate output queueing.
	speedup = 2
)

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

// cioqStage is the VOQ buffer and crossbar between a CIOQ switch's
// forwarding engine and its egress ports.
type cioqStage struct {
	sched *eventq.Scheduler
	ports []*OutPort // the egress queues the crossbar feeds

	voqs        [][]voq // voqs[input][output]
	ingressUsed []int
	rr          []int  // per-output round-robin input pointer
	active      []bool // per-output transfer loop running
	// transferFns caches one self-rescheduling closure per output so the
	// crossbar loop does not allocate a fresh closure per packet.
	transferFns []func()
}

// EnableCIOQ turns the switch into a CIOQ switch: forwarded packets wait in
// VOQs and cross a crossbar to the egress ports. Must be called before any
// traffic. The forwarding decision is unchanged except that the switch
// hashes flows with its own ECMP seed and detours at a full egress queue
// before the packet enters a VOQ (see Receive).
func (s *Switch) EnableCIOQ(sched *eventq.Scheduler) {
	if s.pfc != nil {
		panic("switching: PFC is implemented for output-queued switches only")
	}
	n := len(s.ports)
	c := &cioqStage{
		sched:       sched,
		ports:       s.ports,
		voqs:        make([][]voq, n),
		ingressUsed: make([]int, n),
		rr:          make([]int, n),
		active:      make([]bool, n),
		transferFns: make([]func(), n),
	}
	for i := range c.voqs {
		c.voqs[i] = make([]voq, n)
	}
	for out := range c.transferFns {
		out := out
		c.transferFns[out] = func() { c.transfer(out) }
	}
	s.cioq = c
	s.seed = core.FlowHash(packet.FlowID(s.ID), 0xC109) | 1
}

// push buffers p in the VOQ from input in to output out, charging in's
// ingress buffer, and kicks out's crossbar loop.
func (c *cioqStage) push(p *packet.Packet, in, out int) {
	c.ingressUsed[in]++
	c.voqs[in][out].push(p)
	if !c.active[out] {
		c.active[out] = true
		c.transfer(out)
	}
}

// transfer moves one packet from a VOQ to the egress queue, then schedules
// itself after the crossbar transfer time (packet serialization divided by
// the speedup). It idles when no VOQ feeds this output; when the egress
// queue is momentarily full it waits one MTU transfer time and retries —
// with DIBS, arrivals were already detoured before entering the VOQs, so
// this wait is the input-side backpressure a real CIOQ exhibits.
func (c *cioqStage) transfer(out int) {
	in := c.pickInput(out)
	if in < 0 {
		c.active[out] = false
		return
	}
	if c.ports[out].QueueFull() {
		c.sched.After(c.cellTime(packet.DefaultMTU), c.transferFns[out])
		return
	}
	p := c.voqs[in][out].pop()
	c.ingressUsed[in]--
	c.rr[out] = (in + 1) % len(c.ports)
	size := p.Size() // read before Enqueue: a cross-shard port frees p
	if r := c.ports[out].Enqueue(p); !r.Accepted {
		// Cannot happen: fullness was checked above and the simulator is
		// single-threaded.
		panic("switching: CIOQ egress refused after fullness check")
	}
	c.sched.After(c.cellTime(size), c.transferFns[out])
}

// pickInput round-robins over inputs with a waiting packet for out.
func (c *cioqStage) pickInput(out int) int {
	n := len(c.ports)
	for k := 0; k < n; k++ {
		in := (c.rr[out] + k) % n
		if !c.voqs[in][out].empty() {
			return in
		}
	}
	return -1
}

// cellTime is the crossbar occupancy for a packet of the given wire size.
func (c *cioqStage) cellTime(bytes int) eventq.Time {
	t := c.ports[0].SerializationTime(bytes) / speedup
	if t < 1 {
		t = 1
	}
	return t
}

// queued counts the packets waiting in VOQs.
func (c *cioqStage) queued() int {
	total := 0
	for _, used := range c.ingressUsed {
		total += used
	}
	return total
}
