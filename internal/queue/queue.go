// Package queue implements the output-port queue disciplines used in the
// DIBS evaluation:
//
//   - DropTail: fixed-capacity FIFO with optional DCTCP ECN marking at an
//     instantaneous queue-length threshold (paper Table 1: 100-packet
//     buffers, marking threshold 20).
//   - Infinite: unbounded FIFO, the "InfiniteBuf" baseline of §5.2.
//   - Shared/DBA: per-port queues drawing on a switch-wide shared memory
//     pool with dynamic thresholds (paper §5.5.2, Arista-style dynamic
//     buffer allocation).
//   - PFabric: 24-packet priority queue with lowest-priority drop and
//     highest-priority dequeue (paper §5.8).
//
// A queue holds whole packets; capacities are expressed in packets, as in
// the paper. Queues are not safe for concurrent use: the simulator is
// single-threaded.
package queue

import (
	"dibs/internal/packet"
)

// Result reports the outcome of an Enqueue.
type Result struct {
	// Accepted is true when the packet was stored.
	Accepted bool
	// Marked is true when the discipline set the packet's CE bit.
	Marked bool
	// Evicted is a previously queued packet pushed out to make room
	// (pFabric priority dropping); nil otherwise.
	Evicted *packet.Packet
}

// Queue is a single output-port queue.
type Queue interface {
	// Enqueue offers p to the queue.
	Enqueue(p *packet.Packet) Result
	// Dequeue removes the next packet to transmit, or nil when empty.
	Dequeue() *packet.Packet
	// Len is the number of queued packets.
	Len() int
	// Full reports whether a new Enqueue would be refused. This is the
	// predicate DIBS consults before detouring.
	Full() bool
	// Bytes is the total wire bytes queued.
	Bytes() int
}

// FluidShare is the occupancy a fluid-modeled traffic share contributes to
// a port's queue (hybrid mode, DESIGN §9). The fluid engine updates it on
// its tick; disciplines with finite capacity fold it into their admission
// and Full checks, so packet traffic — and DIBS's detour-on-full decision —
// sees the queue depth the modeled flows would really occupy. Len and Bytes
// stay packet-only: conservation checks count real packets.
//
// A nil *FluidShare reads as zero occupancy, so packet-mode queues carry no
// branch cost beyond one nil check.
type FluidShare struct {
	pkts int
}

// SetPkts sets the fluid occupancy in packet equivalents (nil-safe no-op).
func (s *FluidShare) SetPkts(n int) {
	if s != nil {
		s.pkts = n
	}
}

// Pkts returns the fluid occupancy in packet equivalents (nil reads 0).
func (s *FluidShare) Pkts() int {
	if s == nil {
		return 0
	}
	return s.pkts
}

// fifo is a growable power-of-two ring buffer of packets shared by the
// FIFO disciplines. The buffer never shrinks mid-run — capacity reached
// during a burst is retained, so a queue oscillating around its high-water
// mark allocates nothing — and the power-of-two size turns the index
// modulo into a mask.
type fifo struct {
	buf   []*packet.Packet
	head  int
	n     int
	bytes int
}

func (f *fifo) push(p *packet.Packet) {
	if f.n == len(f.buf) {
		f.grow()
	}
	f.buf[(f.head+f.n)&(len(f.buf)-1)] = p
	f.n++
	f.bytes += p.Size()
}

func (f *fifo) pop() *packet.Packet {
	if f.n == 0 {
		return nil
	}
	p := f.buf[f.head]
	f.buf[f.head] = nil
	f.head = (f.head + 1) & (len(f.buf) - 1)
	f.n--
	f.bytes -= p.Size()
	return p
}

func (f *fifo) grow() {
	size := len(f.buf) * 2
	if size == 0 {
		size = 16
	}
	nb := make([]*packet.Packet, size)
	for i := 0; i < f.n; i++ {
		nb[i] = f.buf[(f.head+i)&(len(f.buf)-1)]
	}
	f.buf = nb
	f.head = 0
}

// DropTail is a fixed-capacity FIFO with optional ECN marking. A packet is
// marked when, at enqueue time, the queue already holds at least MarkAt
// packets (instantaneous marking, as DCTCP recommends for shallow buffers).
// MarkAt <= 0 disables marking.
type DropTail struct {
	capacity int
	markAt   int
	fluid    *FluidShare
	f        fifo
}

// NewDropTail returns a FIFO holding at most capacity packets, ECN-marking
// at markAt (0 disables marking).
func NewDropTail(capacity, markAt int) *DropTail {
	return new(DropTail).init(capacity, markAt, nil)
}

func (q *DropTail) init(capacity, markAt int, arena *DropTailArena) *DropTail {
	if capacity < 1 {
		panic("queue: DropTail capacity must be >= 1")
	}
	*q = DropTail{capacity: capacity, markAt: markAt}
	// Switch-scale buffers (~100 packets) get their ring up front; host
	// NICs are configured orders of magnitude deeper and rarely fill, so
	// presizing them would waste megabytes per host.
	if capacity <= 1024 {
		size := 16
		for size < capacity {
			size *= 2
		}
		if arena != nil {
			q.f.buf = arena.ring(size)
		} else {
			q.f.buf = make([]*packet.Packet, size)
		}
	}
	return q
}

// DropTailArena carves DropTail queues — the struct and its presized ring —
// from shared blocks, for builders that construct one queue per port: a
// K=8 fat-tree instantiates ~770 of them, and two allocations each made
// queue construction one of the largest allocation sites of a whole
// benchmark iteration. Queues carved here are ordinary DropTails; a queue
// that outgrows its carved ring falls back to its own buffer (the slab
// portion is abandoned, which at 64 slots per block is cheaper than ever
// reallocating it). Not safe for concurrent use; network construction is
// single-threaded.
type DropTailArena struct {
	spare []DropTail
	slab  []*packet.Packet
}

// New carves one DropTail, equivalent to NewDropTail(capacity, markAt).
func (a *DropTailArena) New(capacity, markAt int) *DropTail {
	if len(a.spare) == 0 {
		a.spare = make([]DropTail, 64)
	}
	q := &a.spare[0]
	a.spare = a.spare[1:]
	return q.init(capacity, markAt, a)
}

// ring carves a power-of-two ring of n slots from the shared slab.
func (a *DropTailArena) ring(n int) []*packet.Packet {
	if len(a.slab) < n {
		block := 64 * 128
		if block < n {
			block = n
		}
		a.slab = make([]*packet.Packet, block)
	}
	r := a.slab[:n:n]
	a.slab = a.slab[n:]
	return r
}

// SetFluid folds a fluid occupancy share into the queue's capacity and
// Full checks. Marking stays on the real packet length: the fluid model's
// congestion contribution reaches packet senders through the port's
// residual service rate, and the real queue that builds under it marks on
// its own.
func (q *DropTail) SetFluid(s *FluidShare) { q.fluid = s }

// Enqueue implements Queue.
func (q *DropTail) Enqueue(p *packet.Packet) Result {
	if q.f.n+q.fluid.Pkts() >= q.capacity {
		return Result{}
	}
	var marked bool
	if q.markAt > 0 && q.f.n >= q.markAt {
		p.CE = true
		marked = true
	}
	q.f.push(p)
	return Result{Accepted: true, Marked: marked}
}

// Dequeue implements Queue.
func (q *DropTail) Dequeue() *packet.Packet { return q.f.pop() }

// Len implements Queue.
func (q *DropTail) Len() int { return q.f.n }

// Full implements Queue.
func (q *DropTail) Full() bool { return q.f.n+q.fluid.Pkts() >= q.capacity }

// Bytes implements Queue.
func (q *DropTail) Bytes() int { return q.f.bytes }

// Capacity returns the configured packet capacity.
func (q *DropTail) Capacity() int { return q.capacity }

// Infinite is an unbounded FIFO with optional ECN marking; the paper's
// "infinite buffer" baseline.
type Infinite struct {
	markAt int
	f      fifo
}

// NewInfinite returns an unbounded FIFO ECN-marking at markAt (0 disables).
func NewInfinite(markAt int) *Infinite { return &Infinite{markAt: markAt} }

// Enqueue implements Queue.
func (q *Infinite) Enqueue(p *packet.Packet) Result {
	var marked bool
	if q.markAt > 0 && q.f.n >= q.markAt {
		p.CE = true
		marked = true
	}
	q.f.push(p)
	return Result{Accepted: true, Marked: marked}
}

// Dequeue implements Queue.
func (q *Infinite) Dequeue() *packet.Packet { return q.f.pop() }

// Len implements Queue.
func (q *Infinite) Len() int { return q.f.n }

// Full implements Queue.
func (q *Infinite) Full() bool { return false }

// Bytes implements Queue.
func (q *Infinite) Bytes() int { return q.f.bytes }

// SharedPool models a switch's shared packet memory for dynamic buffer
// allocation (DBA, paper §5.5.2). Each port's queue may grow while the pool
// has free space, up to a dynamic threshold of Alpha times the remaining
// free pool (the classic DBA control law), and is always allowed MinReserve
// packets to avoid deadlock.
type SharedPool struct {
	total   int
	used    int
	alpha   float64
	reserve int
}

// NewSharedPool creates a pool of total packets with the given alpha and
// per-port minimum reserve.
func NewSharedPool(total int, alpha float64, reserve int) *SharedPool {
	if total < 1 {
		panic("queue: SharedPool total must be >= 1")
	}
	if alpha <= 0 {
		panic("queue: SharedPool alpha must be > 0")
	}
	return &SharedPool{total: total, alpha: alpha, reserve: reserve}
}

// Free returns the free packet slots in the pool.
func (sp *SharedPool) Free() int { return sp.total - sp.used }

// Used returns the occupied packet slots.
func (sp *SharedPool) Used() int { return sp.used }

// Total returns the pool capacity in packets.
func (sp *SharedPool) Total() int { return sp.total }

// threshold returns the current dynamic per-queue length limit.
func (sp *SharedPool) threshold() int {
	t := int(sp.alpha * float64(sp.Free()))
	if t < sp.reserve {
		t = sp.reserve
	}
	return t
}

// admit reports whether a queue currently holding n packets may grow.
func (sp *SharedPool) admit(n int) bool {
	return sp.used < sp.total && n < sp.threshold()
}

// SharedQueue is one port's queue drawing on a SharedPool.
type SharedQueue struct {
	pool   *SharedPool
	markAt int
	fluid  *FluidShare
	f      fifo
}

// NewSharedQueue attaches a queue to pool, ECN-marking at markAt (0
// disables).
func NewSharedQueue(pool *SharedPool, markAt int) *SharedQueue {
	return &SharedQueue{pool: pool, markAt: markAt}
}

// SetFluid folds a fluid occupancy share into the queue's admission and
// Full checks (per-queue threshold only; the shared pool accounts real
// packets).
func (q *SharedQueue) SetFluid(s *FluidShare) { q.fluid = s }

// Enqueue implements Queue.
func (q *SharedQueue) Enqueue(p *packet.Packet) Result {
	if !q.pool.admit(q.f.n + q.fluid.Pkts()) {
		return Result{}
	}
	var marked bool
	if q.markAt > 0 && q.f.n >= q.markAt {
		p.CE = true
		marked = true
	}
	q.f.push(p)
	q.pool.used++
	return Result{Accepted: true, Marked: marked}
}

// Dequeue implements Queue.
func (q *SharedQueue) Dequeue() *packet.Packet {
	p := q.f.pop()
	if p != nil {
		q.pool.used--
	}
	return p
}

// Len implements Queue.
func (q *SharedQueue) Len() int { return q.f.n }

// Full implements Queue.
func (q *SharedQueue) Full() bool { return !q.pool.admit(q.f.n + q.fluid.Pkts()) }

// Bytes implements Queue.
func (q *SharedQueue) Bytes() int { return q.f.bytes }

// PFabric is the priority queue of pFabric switches (paper §5.8): tiny
// capacity (24 packets in the paper), dequeue the highest-priority packet
// (lowest Priority value, FIFO among equals), and on overflow evict the
// lowest-priority queued packet if the arrival beats it.
type PFabric struct {
	capacity int
	pkts     []*packet.Packet // unsorted; capacity is tiny so scans are fine
	seqs     []uint64         // arrival order for FIFO tie-breaking
	nextSeq  uint64
	bytes    int
}

// NewPFabric returns a pFabric queue with the given packet capacity. The
// packet and sequence arrays are allocated to capacity up front (capacity
// is tiny — 24 in the paper) so the queue never allocates mid-run.
func NewPFabric(capacity int) *PFabric {
	if capacity < 1 {
		panic("queue: PFabric capacity must be >= 1")
	}
	return &PFabric{
		capacity: capacity,
		pkts:     make([]*packet.Packet, 0, capacity),
		seqs:     make([]uint64, 0, capacity),
	}
}

// Enqueue implements Queue. When full, the lowest-priority (highest
// Priority value, latest arrival on ties) packet is evicted if the new
// packet outranks it; otherwise the new packet is refused.
func (q *PFabric) Enqueue(p *packet.Packet) Result {
	if len(q.pkts) < q.capacity {
		q.push(p)
		return Result{Accepted: true}
	}
	wi := q.worst()
	w := q.pkts[wi]
	if p.Priority >= w.Priority {
		return Result{} // arrival does not outrank anything; drop arrival
	}
	q.removeAt(wi)
	q.push(p)
	return Result{Accepted: true, Evicted: w}
}

func (q *PFabric) push(p *packet.Packet) {
	q.pkts = append(q.pkts, p)
	q.seqs = append(q.seqs, q.nextSeq)
	q.nextSeq++
	q.bytes += p.Size()
}

func (q *PFabric) removeAt(i int) {
	q.bytes -= q.pkts[i].Size()
	last := len(q.pkts) - 1
	q.pkts[i] = q.pkts[last]
	q.seqs[i] = q.seqs[last]
	q.pkts = q.pkts[:last]
	q.seqs = q.seqs[:last]
}

// worst returns the index of the lowest-priority packet (highest Priority
// value; later arrival loses ties).
func (q *PFabric) worst() int {
	wi := 0
	for i := 1; i < len(q.pkts); i++ {
		if q.pkts[i].Priority > q.pkts[wi].Priority ||
			(q.pkts[i].Priority == q.pkts[wi].Priority && q.seqs[i] > q.seqs[wi]) {
			wi = i
		}
	}
	return wi
}

// best returns the index of the highest-priority packet (lowest Priority
// value; earlier arrival wins ties).
func (q *PFabric) best() int {
	bi := 0
	for i := 1; i < len(q.pkts); i++ {
		if q.pkts[i].Priority < q.pkts[bi].Priority ||
			(q.pkts[i].Priority == q.pkts[bi].Priority && q.seqs[i] < q.seqs[bi]) {
			bi = i
		}
	}
	return bi
}

// Dequeue implements Queue.
func (q *PFabric) Dequeue() *packet.Packet {
	if len(q.pkts) == 0 {
		return nil
	}
	bi := q.best()
	p := q.pkts[bi]
	q.removeAt(bi)
	return p
}

// Len implements Queue.
func (q *PFabric) Len() int { return len(q.pkts) }

// Full implements Queue. pFabric is "never full" in the drop-tail sense —
// it always accepts a sufficiently high-priority packet — so Full reports
// capacity occupancy; pFabric runs never enable DIBS.
func (q *PFabric) Full() bool { return len(q.pkts) >= q.capacity }

// Bytes implements Queue.
func (q *PFabric) Bytes() int { return q.bytes }
