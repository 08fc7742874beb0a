// Package packet defines the on-wire unit the simulator moves around: TCP
// data segments and ACKs with the header fields the DIBS evaluation needs
// (ECN bits, TTL, pFabric priority) plus bookkeeping counters (detours,
// hops) used by the metrics layer.
package packet

import "fmt"

// NodeID identifies a node (host or switch) in the topology. IDs are dense,
// assigned by the topology builder.
type NodeID int32

// None is the zero-value "no node" sentinel.
const None NodeID = -1

// FlowID identifies a transport flow (one direction of a connection).
type FlowID int64

// Kind distinguishes packet types.
type Kind uint8

const (
	// Data carries payload bytes of a flow.
	Data Kind = iota
	// Ack acknowledges received data cumulatively.
	Ack
)

func (k Kind) String() string {
	switch k {
	case Data:
		return "DATA"
	case Ack:
		return "ACK"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Header sizes and defaults, in bytes.
const (
	// HeaderBytes is the combined IP+TCP header size.
	HeaderBytes = 40
	// DefaultMTU is the maximum packet size including headers.
	DefaultMTU = 1500
	// DefaultMSS is the maximum payload per data segment.
	DefaultMSS = DefaultMTU - HeaderBytes
	// AckBytes is the wire size of a pure ACK.
	AckBytes = HeaderBytes
	// DefaultTTL is the initial IP TTL (paper §5.5.3 varies 12..255).
	DefaultTTL = 255
)

// TraceHop records one switch-level forwarding decision for path tracing
// (paper Figures 1 and 2). Recorded only when tracing is enabled.
type TraceHop struct {
	Node     NodeID
	Port     int
	Detoured bool
}

// Packet is a single segment in flight. Simulation packets are borrowed
// from a per-run Pool and recycled on every terminal path; tests may still
// build them as plain composite literals (such packets have no pool and
// Free ignores them). The simulator is single-threaded so no
// synchronization is needed.
type Packet struct {
	Kind Kind
	Flow FlowID
	Src  NodeID
	Dst  NodeID

	// Seq is the byte offset of the first payload byte (Data) or the
	// cumulative ACK offset (Ack).
	Seq int64
	// PayloadBytes is the number of payload bytes carried (Data only).
	PayloadBytes int
	// TTL is decremented at every switch; the packet is dropped at zero.
	TTL int

	// CE is the ECN Congestion Experienced codepoint, set by switches when
	// the queue exceeds the marking threshold or when the packet is
	// detoured (paper §5.3: "The detoured packets are also marked").
	CE bool
	// ECNEcho on an ACK echoes the CE bit of the data segment it acks.
	ECNEcho bool

	// Priority is the pFabric priority: remaining flow size in bytes at
	// send time. Lower value = higher priority. Zero for non-pFabric runs.
	Priority int64

	// SentAt is the virtual time the transport first emitted this segment
	// (nanoseconds); used for RTT sampling.
	SentAt int64
	// Rexmit marks retransmitted segments (excluded from RTT sampling).
	Rexmit bool

	// Detours counts DIBS detour decisions applied to this packet.
	Detours int
	// Hops counts switch traversals.
	Hops int

	// Ingress is switch-local scratch: the input port this packet arrived
	// on at the switch currently buffering it. Ethernet flow control (PFC)
	// uses it for per-ingress buffer accounting; it is rewritten at every
	// hop and meaningless elsewhere.
	Ingress int

	// Trace, when non-nil, accumulates the forwarding path.
	Trace []TraceHop

	// Pool bookkeeping (see pool.go). pool is nil for packets built as
	// composite literals; gen counts recycles so stale holders are
	// detectable; pooled marks a node sitting in the freelist; traceBuf
	// retains trace storage across recycles.
	pool     *Pool
	gen      uint32
	pooled   bool
	traceBuf []TraceHop
}

// Gen returns the packet's generation counter. It is bumped every time the
// packet is returned to its pool, so a component that records (packet, Gen)
// at borrow time can detect use-after-return: a mismatch means the node was
// recycled under it.
func (p *Packet) Gen() uint32 { return p.gen }

// Pooled reports whether the packet currently sits in its pool's freelist
// (i.e. it has been returned and must not be used).
func (p *Packet) Pooled() bool { return p.pooled }

// AttachTrace enables path tracing on the packet, reusing the node's
// retained trace storage when it has been traced before.
func (p *Packet) AttachTrace() {
	if p.traceBuf != nil {
		p.Trace = p.traceBuf[:0]
		return
	}
	p.Trace = make([]TraceHop, 0, 16)
}

// Size returns the wire size of the packet in bytes.
func (p *Packet) Size() int {
	if p.Kind == Ack {
		return AckBytes
	}
	return HeaderBytes + p.PayloadBytes
}

// End returns the byte offset just past this segment's payload.
func (p *Packet) End() int64 { return p.Seq + int64(p.PayloadBytes) }

// String formats a compact human-readable description for traces and tests.
func (p *Packet) String() string {
	return fmt.Sprintf("%s flow=%d %d->%d seq=%d len=%d ttl=%d ce=%v det=%d",
		p.Kind, p.Flow, p.Src, p.Dst, p.Seq, p.PayloadBytes, p.TTL, p.CE, p.Detours)
}
