package netsim

import (
	"fmt"

	"dibs/internal/eventq"
	"dibs/internal/metrics"
	"dibs/internal/packet"
	"dibs/internal/pdes"
	"dibs/internal/trace"
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
	// window; the coordinator drains it at each barrier. Only this shard's
	// worker appends (during windows) and only the coordinator reads
	// (between windows), with the barrier channels ordering the two.
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
}

// makeEmit builds the cross-shard hand-off for one directed link whose
// transmitter lives in src and receiver (node peer, port peerPort) in dst.
// The OutPort has already freed the packet into src's arena; the message
// wraps the snapshot and, on delivery, borrows from dst's arena, restores
// the snapshot, and hands it to the receiving node exactly as a local
// delivery event would.
func (n *Network) makeEmit(src, dst *shardCtx, peer packet.NodeID, peerPort int) func(at eventq.Time, pri int64, w packet.Wire) {
	return func(at eventq.Time, pri int64, w packet.Wire) {
		src.emitted++
		src.outbox = append(src.outbox, pdes.Message{
			At: at, Pri: pri, Seq: src.emitted, Dst: dst.id,
			Deliver: func() {
				dst.adopted++
				p := dst.pool.Get()
				w.Restore(p)
				n.handlers[peer].Receive(p, peerPort)
			},
		})
	}
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
// protocol.
func (n *Network) runSharded(end eventq.Time) {
	pdes.Run(len(n.shards), n.lookahead(), end,
		func(i int, limit eventq.Time) { n.shards[i].sched.RunUntil(limit) },
		func(i int) []pdes.Message {
			sh := n.shards[i]
			out := sh.outbox
			sh.outbox = nil
			return out
		},
		func(m pdes.Message) {
			n.shards[m.Dst].sched.AtPri(m.At, m.Pri, m.Deliver)
		})
}

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
// exists before the sender's first segment can possibly matter.
func (n *Network) installFlow(f *flowStart, tc transport.Config) {
	if f.src == f.dst {
		panic("netsim: flow to self")
	}
	srcHost := n.HostsByID[f.src]
	dstHost := n.HostsByID[f.dst]
	if srcHost == nil || dstHost == nil {
		panic(fmt.Sprintf("netsim: flow endpoints %d->%d are not hosts", f.src, f.dst))
	}
	ss := n.shards[n.part[f.src]]
	ds := n.shards[n.part[f.dst]]

	ds.sched.At(f.at, func() {
		rcv := transport.NewReceiver(transport.Env{Sched: ds.sched, Pool: ds.pool, Emit: dstHost.SendFn()},
			tc, f.id, f.dst, f.bytes)
		rcv.OnComplete = func() {
			ds.coll.FlowDone(f.id)
			dstHost.RemoveReceiver(f.id)
			if n.Trace != nil {
				n.Trace.Record(trace.Event{
					T: ds.sched.Now(), Kind: trace.KindFlowDone, Node: f.dst,
					Flow: f.id, Seq: -1,
				})
			}
		}
		dstHost.AddReceiver(rcv)
		if f.class == metrics.ClassLong {
			ds.longRx = append(ds.longRx, rcv)
		}
		if n.fluid != nil {
			// Fluid modes run on one shard; the receiver event precedes
			// the sender's at the same instant, so the hand-off below is
			// always populated when the sender registers.
			n.fluid.pendingRcv[f.id] = rcv
		}
	})
	ss.sched.At(f.at, func() {
		snd := transport.NewSender(transport.Env{Sched: ss.sched, Pool: ss.pool, Emit: srcHost.SendFn()},
			tc, f.id, f.src, f.dst, f.bytes)
		snd.OnComplete = func() { srcHost.RemoveSender(f.id) }
		srcHost.AddSender(snd)
		ss.senders = append(ss.senders, snd)
		if n.Trace != nil {
			n.Trace.Record(trace.Event{
				T: ss.sched.Now(), Kind: trace.KindFlowStart, Node: f.src,
				Flow: f.id, Seq: -1, Detail: fmt.Sprintf("%s %dB -> %d", f.class, f.bytes, f.dst),
			})
		}
		if n.fluid != nil {
			rcv := n.fluid.pendingRcv[f.id]
			delete(n.fluid.pendingRcv, f.id)
			if n.fluid.registerFlow(snd, rcv) {
				return
			}
		}
		snd.Start()
	})
}
