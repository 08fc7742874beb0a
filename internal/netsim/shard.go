package netsim

import (
	"dibs/internal/eventq"
	"dibs/internal/metrics"
	"dibs/internal/packet"
	"dibs/internal/pdes"
	"dibs/internal/switching"
	"dibs/internal/transport"
)

// shardCtx is one scheduler shard of the network: its own event queue,
// packet arena, and metrics collector, plus the outbox of cross-shard
// packets it emitted during the current window. With Shards <= 1 the whole
// network is one shardCtx and the run is the plain sequential engine — the
// sharded configuration differs only in how many of these exist and in
// which links hand off through the outbox instead of scheduling locally.
type shardCtx struct {
	id    int
	sched *eventq.Scheduler
	pool  *packet.Pool
	coll  *metrics.Collector

	// outbox collects the shard's cross-shard emissions of the current
	// window; the coordinator drains it at each barrier and hands the
	// backing array back. Only the worker running this shard appends
	// (during windows) and only the coordinator reads (between windows),
	// with the barrier epochs ordering the two.
	outbox []pdes.Message
	// emitted counts packets returned to this shard's arena because they
	// left for another shard; adopted counts packets borrowed from this
	// arena to re-materialize an arriving snapshot. The pair lets the
	// results layer cancel the hand-off borrows out of the pool totals,
	// keeping PoolBorrowed/PoolReturned byte-identical to a 1-shard run.
	emitted uint64
	adopted uint64

	// senders/longRx retain this shard's transport endpoints for
	// end-of-run stats aggregation (sums and Flow-sorted merges).
	senders []*transport.Sender
	longRx  []*transport.Receiver

	// remote lists the shard's transmitters on cross-shard links. No local
	// delivery clocks them, so each window ends by syncing them: every
	// packet that started serializing inside the window is handed off at
	// its barrier.
	remote []*switching.OutPort
}

// inLink is the receiving end of one directed link whose transmitter
// lives in another shard: the snapshots the coordinator has injected but
// the receiving shard has not yet delivered, in arrival order, and the one
// delivery event that consumes them (the OutPort inflight/deliver pattern,
// holding values because no pooled node exists until delivery).
type inLink struct {
	dst      *shardCtx
	to       portRef
	peerPort int
	pending  wireRing
	deliver  func()
}

// onDeliver borrows from the receiving arena, restores the oldest pending
// snapshot, and hands it to the receiving node exactly as a local delivery
// event would.
func (l *inLink) onDeliver() {
	l.dst.adopted++
	p := l.dst.pool.Get()
	l.pending.pop().Restore(p)
	l.to.Receive(p, l.peerPort)
}

// linkPri is the delivery ordering key of the directed link that ends at
// (peer, peerPort): unique per link and > 0 (ordinary events use pri 0 and
// run first). It names the receiving port, which is how a cross-shard
// message finds its inLink.
func linkPri(peer packet.NodeID, peerPort int) int64 {
	return 1 + (int64(peer)<<16 | int64(peerPort))
}

// inLinkOf returns the receiving end registered for delivery key pri.
func (n *Network) inLinkOf(pri int64) *inLink {
	return n.inLinks[(pri-1)>>16][(pri-1)&0xffff]
}

// makeEmit builds the cross-shard hand-off for one directed link whose
// transmitter lives in src and receiver (node peer, port peerPort) in dst,
// and registers the receiving end. The OutPort has already freed the
// packet into src's arena; the snapshot travels by value in the message,
// so a hand-off allocates nothing.
func (n *Network) makeEmit(src, dst *shardCtx, peer packet.NodeID, peerPort int) func(at eventq.Time, pri int64, w packet.Wire) {
	l := &inLink{dst: dst, to: portRef{n, peer}, peerPort: peerPort}
	l.deliver = l.onDeliver
	if n.inLinks == nil {
		n.inLinks = make([][]*inLink, n.Topo.NumNodes())
	}
	if n.inLinks[peer] == nil {
		n.inLinks[peer] = make([]*inLink, len(n.Topo.Ports(peer)))
	}
	n.inLinks[peer][peerPort] = l
	return func(at eventq.Time, pri int64, w packet.Wire) {
		src.emitted++
		src.outbox = append(src.outbox, pdes.Message{
			At: at, Pri: pri, Seq: src.emitted, Dst: dst.id, Wire: w, Deliver: l.deliver,
		})
	}
}

// wireRing is a never-shrinking power-of-two FIFO ring of snapshots.
type wireRing struct {
	buf  []packet.Wire
	head int
	n    int
}

func (r *wireRing) push(w packet.Wire) {
	if r.n == len(r.buf) {
		grown := make([]packet.Wire, max(8, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf = grown
		r.head = 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = w
	r.n++
}

func (r *wireRing) pop() packet.Wire {
	if r.n == 0 {
		panic("netsim: cross-shard delivery with no pending snapshot")
	}
	w := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return w
}

// lookahead returns the conservative window width: the minimum propagation
// delay over links that cross a shard boundary. Any packet emitted during a
// window arrives at least that far in the future, so shards can run a full
// window without hearing from each other.
func (n *Network) lookahead() eventq.Time {
	var la eventq.Time
	for _, sid := range n.Topo.Switches() {
		for _, p := range n.Topo.Ports(sid) {
			if n.part[sid] != n.part[p.Peer] && (la == 0 || p.Delay < la) {
				la = p.Delay
			}
		}
	}
	if la == 0 {
		la = n.Cfg.LinkDelay
	}
	return la
}

// runSharded drives all shards to end under the conservative window
// protocol. Injection pushes the snapshot onto its link's ring before
// scheduling the link's delivery event: same-link messages arrive sorted
// by (At, Seq) and the scheduler runs same-(time, pri) events in insertion
// order, so each delivery pops the snapshot it was scheduled for.
func (n *Network) runSharded(end eventq.Time) {
	n.shardStats = pdes.Run(len(n.shards), n.lookahead(), end,
		func(i int, limit eventq.Time) {
			sh := n.shards[i]
			sh.sched.RunUntil(limit)
			for _, op := range sh.remote {
				op.Sync()
			}
		},
		func(i int) []pdes.Message {
			sh := n.shards[i]
			out := sh.outbox
			sh.outbox = out[:0]
			return out
		},
		func(m pdes.Message) {
			n.inLinkOf(m.Pri).pending.push(m.Wire)
			n.shards[m.Dst].sched.AtPri(m.At, m.Pri, m.Deliver)
		})
}

// ShardStats reports what the window loop of the last sharded Run did
// (zero with one shard). It describes the engine, not the simulation —
// Parks varies from run to run — so it is kept out of Results.
func (n *Network) ShardStats() pdes.Stats { return n.shardStats }

// Executed sums executed events over all shards.
func (n *Network) Executed() uint64 {
	var total uint64
	for _, sh := range n.shards {
		total += sh.sched.Executed()
	}
	return total
}

// installSchedule pre-registers the recorded workload with every shard's
// collector and schedules the creation of each flow's endpoints. Flow and
// query tables go to every collector eagerly: a packet may be dropped or
// detoured in any shard along its path, and class attribution must work
// wherever the hook fires. Completion state stays exclusive — only the
// destination shard's collector ever marks a flow done — so the merge
// cannot double-count.
func (n *Network) installSchedule(s *flowSchedule) {
	tc := n.transportConfig()
	for _, sh := range n.shards {
		for _, q := range s.queries {
			sh.coll.QueryStartedAt(q.id, q.nFlows, q.at)
		}
		for _, f := range s.flows {
			sh.coll.FlowStartedAt(f.id, f.class, f.bytes, f.queryID, f.at)
		}
	}
	for i := range s.flows {
		n.installFlow(&s.flows[i], tc)
	}
}

// installFlow schedules the creation of one recorded flow's endpoints: the
// receiver on the destination's shard, then the sender on the source's.
// Both events carry pri 0 at the flow's start time; installing the receiver
// first gives it the smaller sequence number, so in a shared shard it
// exists before the sender's first segment can possibly matter (and, in
// the one-shard fluid modes, before the sender's hand-off reads it).
func (n *Network) installFlow(f *flowStart, tc transport.Config) {
	ss := n.shards[n.part[f.src]]
	ds := n.shards[n.part[f.dst]]
	ds.sched.At(f.at, func() { n.openReceiver(ds, f, tc) })
	ss.sched.At(f.at, func() { n.openSender(ss, f, tc) })
}
