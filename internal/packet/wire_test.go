package packet

import (
	"strings"
	"testing"
)

// fill populates every simulation-visible field Snapshot carries, with
// values distinct from the zero value so a missed field shows up.
func fill(p *Packet) {
	p.Kind = Ack
	p.Flow = 7
	p.Src = 3
	p.Dst = 9
	p.Seq = 42
	p.PayloadBytes = 1460
	p.TTL = 12
	p.CE = true
	p.ECNEcho = true
	p.Priority = 5
	p.SentAt = 1000
	p.Rexmit = true
	p.Detours = 4
	p.Hops = 6
	p.Ingress = 2
}

// A shard crossing of a trace-attached packet: the snapshot carries the
// header state and moves the path to the destination node, the source
// node keeps no alias of the path's storage (re-tracing the recycled
// node must not write into the travelling path), and the pools on both
// sides balance — one return at the source, one borrow at the destination.
func TestWireRoundTripMovesTrace(t *testing.T) {
	src, dst := NewPool(), NewPool()
	p := src.Get()
	fill(p)
	p.AttachTrace()
	p.Trace = append(p.Trace, TraceHop{Node: 3, Port: 1}, TraceHop{Node: 5, Port: 2, Detoured: true})

	w := p.Snapshot()
	Free(p)

	q := dst.Get()
	w.Restore(q)
	if len(q.Trace) != 2 || q.Trace[0] != (TraceHop{Node: 3, Port: 1}) || q.Trace[1] != (TraceHop{Node: 5, Port: 2, Detoured: true}) {
		t.Errorf("restored packet's trace = %v, want the source's two hops", q.Trace)
	}
	// The source node, re-borrowed and traced again, must get fresh storage.
	again := src.Get()
	again.AttachTrace()
	again.Trace = append(again.Trace, TraceHop{Node: 9, Port: 9})
	if q.Trace[0].Node != 3 {
		t.Errorf("re-tracing the source node overwrote the travelling path: %v", q.Trace)
	}
	Free(again)
	cmp := Packet{}
	fill(&cmp)
	if q.Kind != cmp.Kind || q.Flow != cmp.Flow || q.Src != cmp.Src || q.Dst != cmp.Dst ||
		q.Seq != cmp.Seq || q.PayloadBytes != cmp.PayloadBytes || q.TTL != cmp.TTL ||
		q.CE != cmp.CE || q.ECNEcho != cmp.ECNEcho || q.Priority != cmp.Priority ||
		q.SentAt != cmp.SentAt || q.Rexmit != cmp.Rexmit || q.Detours != cmp.Detours ||
		q.Hops != cmp.Hops || q.Ingress != cmp.Ingress {
		t.Errorf("restored packet %+v does not match source fields %+v", q, cmp)
	}
	if src.Borrowed() != 2 || src.Returned() != 2 || src.Live() != 0 {
		t.Errorf("source pool out of balance: borrowed=%d returned=%d", src.Borrowed(), src.Returned())
	}
	if dst.Borrowed() != 1 || dst.Returned() != 0 || dst.Live() != 1 {
		t.Errorf("destination pool out of balance: borrowed=%d returned=%d", dst.Borrowed(), dst.Returned())
	}
	Free(q)
	if dst.Live() != 0 {
		t.Errorf("destination pool leaked after final free: %d live", dst.Live())
	}
}

// A zero-payload control packet (pure ACK) survives the crossing: all-zero
// optional fields stay zero rather than inheriting destination-node junk.
func TestWireZeroPayloadRoundTrip(t *testing.T) {
	src, dst := NewPool(), NewPool()
	p := src.Get()
	p.Kind = Ack
	p.Flow = 1
	p.PayloadBytes = 0

	w := p.Snapshot()
	Free(p)

	q := dst.Get()
	q.PayloadBytes = 999 // destination-node junk a reset must overwrite
	q.Detours = 3
	w.Restore(q)
	if q.PayloadBytes != 0 || q.Detours != 0 || q.Kind != Ack || q.Flow != 1 {
		t.Errorf("zero-payload restore: %+v", q)
	}
	Free(q)
}

// Restoring into a node that is sitting in a freelist is a double
// adoption: the pool still owns the node, and the write would corrupt the
// next borrower. StrictFree (on in test binaries) must catch it.
func TestWireRestoreIntoFreedNodePanics(t *testing.T) {
	if !StrictFree {
		t.Skip("StrictFree disabled")
	}
	pool := NewPool()
	p := pool.Get()
	fill(p)
	w := p.Snapshot()
	Free(p) // p is back in the freelist; the pool owns it again

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Restore into a pooled node did not panic under StrictFree")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "Restore into pooled node") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	w.Restore(p)
}
