package packet

import (
	"fmt"
	"testing"
)

// StrictFree makes Free panic on a packet that has no owning pool instead
// of silently no-op'ing. Composite-literal packets are a test convenience;
// in a real run every packet reaching a terminal path (drop, delivery,
// eviction) must have come from a pool, and a silent no-op hides exactly
// the accounting bugs the conservation checks exist to catch. It defaults
// to on under `go test` so literal packets that reach a terminal path fail
// loudly; tests that intentionally use literals flip it off around the
// injection (see pool_test.go).
var StrictFree = testing.Testing()

// Pool is a per-simulation packet arena: a freelist of Packet values with
// generation-counted borrow/return semantics, mirroring the event-node
// freelist in internal/eventq. A packet is heap-allocated at most once and
// recycled when it reaches any terminal path (delivered to a host, dropped,
// TTL-expired, evicted, refused by a NIC), so a steady-state run allocates
// no new packets.
//
// Ownership is linear: exactly one component owns a borrowed packet at any
// instant (a transport endpoint, an output queue, a VOQ, a link in flight,
// or a host demultiplexer), and the owner either hands it on whole or
// returns it with Free. The pool is not safe for concurrent use: each
// scheduler shard owns its own pool (a packet crossing shards is freed
// into the source arena and re-borrowed from the destination's), and
// run-level parallelism uses one pool per run.
type Pool struct {
	free []*Packet
	// all retains every node ever created, so leak checks can name the
	// packets still outstanding. Its length equals the peak live count,
	// not the packet total: recycled nodes are reused, not re-added.
	all []*Packet
	// block is the tail of the current allocation block: nodes are carved
	// from it in bulk so a growing simulation pays one allocation per
	// blockSize packets of peak live count, not one per packet.
	block []Packet

	borrowed uint64
	returned uint64
}

// blockSize is how many packet nodes one arena growth step allocates.
const blockSize = 64

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Get borrows a zeroed packet from the pool. The caller owns it until it is
// handed to another component or returned with Free.
func (pl *Pool) Get() *Packet {
	var p *Packet
	if n := len(pl.free); n > 0 {
		p = pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		// Preserve pool bookkeeping and the recycled trace buffer; clear
		// every wire/bookkeeping field.
		*p = Packet{pool: pl, gen: p.gen, traceBuf: p.traceBuf}
	} else {
		if len(pl.block) == 0 {
			pl.block = make([]Packet, blockSize)
		}
		p = &pl.block[0]
		pl.block = pl.block[1:]
		p.pool = pl
		pl.all = append(pl.all, p)
	}
	pl.borrowed++
	return p
}

// Put returns p to the pool. The packet's generation counter is bumped, so
// any holder that kept the (packet, generation) pair can detect staleness;
// returning the same borrow twice panics with the packet's identity, since
// a double return would silently free some other owner's packet after the
// node is recycled. Under StrictFree (test binaries) the returned node's
// Kind/Flow/Src/Dst/Seq are also poisoned, so use-after-free reads are
// visibly wrong instead of plausibly right.
func (pl *Pool) Put(p *Packet) {
	if p.pool != pl {
		panic("packet: Put of a packet from a different pool")
	}
	if p.pooled {
		panic(fmt.Sprintf("packet: double return of %s (gen %d)", p, p.gen))
	}
	p.pooled = true
	p.gen++
	if p.Trace != nil {
		// Keep the trace storage with the node so re-tracing a recycled
		// packet does not reallocate; Trace==nil is the "tracing off"
		// signal, so it must not survive into the next borrow.
		p.traceBuf = p.Trace[:0]
		p.Trace = nil
	}
	if StrictFree {
		// Poison the identity fields so a read through a stale pointer
		// cannot pass for the live packet (a freed node otherwise keeps
		// its contents until Get rewrites it on re-borrow).
		p.Kind, p.Flow, p.Src, p.Dst, p.Seq = 0xFF, -1, -1, -1, -1
	}
	pl.returned++
	pl.free = append(pl.free, p)
}

// Borrowed returns the total number of Get calls.
func (pl *Pool) Borrowed() uint64 { return pl.borrowed }

// Returned returns the total number of Put calls.
func (pl *Pool) Returned() uint64 { return pl.returned }

// Live returns the number of packets currently borrowed and not returned.
func (pl *Pool) Live() int { return int(pl.borrowed - pl.returned) }

// Leaked returns the packets currently outstanding, so conservation tests
// can name the offending flow and kind. Order is allocation order.
func (pl *Pool) Leaked() []*Packet {
	var out []*Packet
	for _, p := range pl.all {
		if !p.pooled {
			out = append(out, p)
		}
	}
	return out
}

// Free returns p to its owning pool. It is the terminal-path hook used by
// switches and hosts. Packets built as plain composite literals have no
// pool: under StrictFree (the default in test binaries) they panic here,
// otherwise they pass through as a no-op and remain ordinary
// garbage-collected values.
func Free(p *Packet) {
	if p == nil {
		return
	}
	if p.pool == nil {
		if StrictFree {
			panic(fmt.Sprintf("packet: Free of non-pooled packet %s (composite literal reached a terminal path; borrow from a Pool or clear packet.StrictFree)", p))
		}
		return
	}
	p.pool.Put(p)
}
