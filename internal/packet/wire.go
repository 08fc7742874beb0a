package packet

import "fmt"

// Wire is a value-type snapshot of a Packet's simulation-visible fields,
// the form in which a packet crosses a shard boundary in the sharded PDES
// engine. The pooled node itself never travels: the sending shard snapshots
// the packet and returns the node to its own arena, and the receiving shard
// borrows a node from *its* arena and restores the snapshot — so arena
// custody stays shard-local and the runtime backstops (Pool.Put's
// double-return panic, StrictFree poisoning, the conservation identities)
// keep checking the discipline on both sides of the hand-off. The snapshot
// itself travels by value inside a pdes.Message; nothing is allocated.
//
// Trace is deliberately absent: packet tracing shares an append-only buffer
// across the run and is rejected by Config.Validate for sharded runs.
type Wire struct {
	Kind         Kind
	Flow         FlowID
	Src          NodeID
	Dst          NodeID
	Seq          int64
	PayloadBytes int
	TTL          int
	CE           bool
	ECNEcho      bool
	Priority     int64
	SentAt       int64
	Rexmit       bool
	Detours      int
	Hops         int
	Ingress      int
}

// Snapshot captures p's simulation-visible state for a shard crossing.
func (p *Packet) Snapshot() Wire {
	return Wire{
		Kind:         p.Kind,
		Flow:         p.Flow,
		Src:          p.Src,
		Dst:          p.Dst,
		Seq:          p.Seq,
		PayloadBytes: p.PayloadBytes,
		TTL:          p.TTL,
		CE:           p.CE,
		ECNEcho:      p.ECNEcho,
		Priority:     p.Priority,
		SentAt:       p.SentAt,
		Rexmit:       p.Rexmit,
		Detours:      p.Detours,
		Hops:         p.Hops,
		Ingress:      p.Ingress,
	}
}

// Restore writes the snapshot into a freshly borrowed pooled node (whose
// pool bookkeeping Get already reset), completing the custody transfer on
// the receiving shard. Under StrictFree, restoring into a node that is
// sitting in a freelist (a double adoption, or a stale alias of a freed
// node) panics: the node belongs to the pool, and writing into it would
// corrupt whatever borrows it next.
func (w Wire) Restore(p *Packet) {
	if p.pooled && StrictFree {
		panic(fmt.Sprintf("packet: Restore into pooled node %s (gen %d); adopt with Pool.Get before restoring", p, p.gen))
	}
	p.Kind = w.Kind
	p.Flow = w.Flow
	p.Src = w.Src
	p.Dst = w.Dst
	p.Seq = w.Seq
	p.PayloadBytes = w.PayloadBytes
	p.TTL = w.TTL
	p.CE = w.CE
	p.ECNEcho = w.ECNEcho
	p.Priority = w.Priority
	p.SentAt = w.SentAt
	p.Rexmit = w.Rexmit
	p.Detours = w.Detours
	p.Hops = w.Hops
	p.Ingress = w.Ingress
}
