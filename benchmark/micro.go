package main

import (
	"runtime"
	"time"

	"dibs/internal/core"
	"dibs/internal/eventq"
	"dibs/internal/fluid"
	"dibs/internal/host"
	"dibs/internal/hwlookup"
	"dibs/internal/metrics"
	"dibs/internal/packet"
	"dibs/internal/pdes"
	"dibs/internal/queue"
	"dibs/internal/rng"
	"dibs/internal/runner"
	"dibs/internal/stats"
	"dibs/internal/switching"
	"dibs/internal/topology"
	"dibs/internal/transport"
	"dibs/internal/workload"
)

// kernel measures the unit cost of one layer operation from outside, by
// driving only the layer's exported functions. setup returns run, which
// performs n operations and returns the time they took (excluding any
// per-batch set-up of its own). perUnit converts nanoseconds per operation
// into the metric's unit (1 for ns, 1e3 for us, 1e6 for ms).
type kernel struct {
	name    string
	perUnit float64
	setup   func() (run func(n int) time.Duration)
}

const microBatches = 11

// unitCost calibrates n so that one batch lasts at least batch, then times
// microBatches batches and returns each one's cost per operation.
func unitCost(k kernel, batch time.Duration) []float64 {
	run := k.setup()
	n := 1
	for {
		d := run(n)
		if d >= batch || n >= 1<<30 {
			break
		}
		if d < batch/16 {
			n *= 8
		} else {
			n = int(float64(n)*float64(batch)/float64(d)*1.1) + 1
		}
	}
	out := make([]float64, microBatches)
	for i := range out {
		out[i] = float64(run(n).Nanoseconds()) / float64(n) / k.perUnit
	}
	return out
}

// sinks keep kernel results observable so the loops are not optimised away.
var (
	sinkInt int
	sinkU64 uint64
	sinkF   float64
)

// freeSink is the far end of every kernel link: delivered packets go back
// to their pool, as they do at a host.
type freeSink struct{}

func (freeSink) Receive(p *packet.Packet, _ int) { packet.Free(p) }

// fakeView is an 8-port edge switch as a detour policy sees it: ports 0-3
// face hosts, the desired port 0 is full, the four uplinks have room.
type fakeView struct{ lens [8]int }

func (v *fakeView) NumPorts() int         { return 8 }
func (v *fakeView) IsHostPort(p int) bool { return p < 4 }
func (v *fakeView) QueueFull(p int) bool  { return v.lens[p] >= 100 }
func (v *fakeView) QueueLen(p int) int    { return v.lens[p] }
func (v *fakeView) QueueCap(int) int      { return 100 }

// dataPacket borrows a full-size data segment of the given flow.
func dataPacket(pl *packet.Pool, flow int) *packet.Packet {
	p := pl.Get()
	p.Kind = packet.Data
	p.Flow = packet.FlowID(flow)
	p.PayloadBytes = packet.DefaultMSS
	p.TTL = packet.DefaultTTL
	return p
}

// edgeSwitch wires a real K=8 edge switch whose every port delivers into a
// freeSink, and returns a host below it and a host in another pod.
func edgeSwitch(sched *eventq.Scheduler) (sw *switching.Switch, local, remote packet.NodeID) {
	topo := topology.FatTree(8, topology.DefaultLink, 1)
	sid := packet.None
	local, remote = packet.None, packet.None
	for _, id := range topo.Switches() {
		if topo.Node(id).Layer == topology.LayerEdge {
			sid = id
			break
		}
	}
	var ports []*switching.OutPort
	for pi, p := range topo.Ports(sid) {
		ports = append(ports, switching.NewOutPort(sched, queue.NewDropTail(100, 20), p.RateBps, p.Delay, freeSink{}, p.PeerPort))
		if topo.IsHostPort(sid, pi) && local == packet.None {
			local = p.Peer
		}
	}
	for _, h := range topo.Hosts() {
		if topo.Node(h).Pod != topo.Node(sid).Pod {
			remote = h
			break
		}
	}
	return switching.NewSwitch(sid, topo, ports, core.NewRandom(), rng.New(1, "bench/switch"), nil), local, remote
}

// timed runs op n times and returns the elapsed time.
func timed(n int, op func(i int)) time.Duration {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		op(i)
	}
	return time.Since(t0)
}

var kernels = []kernel{
	{"eventq.sched_pop_ns", 1, func() func(int) time.Duration {
		// 4k self-rescheduling events whose delays are spread like a run's:
		// mostly 12 us serialisations and 1.5 us propagations, a few 10 ms
		// retransmission timers.
		s := eventq.NewScheduler()
		delays := []eventq.Time{12 * eventq.Microsecond, 1500 * eventq.Nanosecond, 12 * eventq.Microsecond,
			1500 * eventq.Nanosecond, 12 * eventq.Microsecond, 10 * eventq.Millisecond, 12 * eventq.Microsecond, 1500 * eventq.Nanosecond}
		left := 0
		for i := 0; i < 4096; i++ {
			d := delays[i%len(delays)] + eventq.Time(i)
			var fire func()
			fire = func() {
				if left--; left <= 0 {
					s.Stop()
				}
				s.After(d, fire)
			}
			s.After(d, fire)
		}
		return func(n int) time.Duration {
			left = n
			t0 := time.Now()
			s.Run()
			return time.Since(t0)
		}
	}},
	{"eventq.timer_rearm_ns", 1, func() func(int) time.Duration {
		// Arm a 10 ms timer and cancel it, as a sender does per ACK; the
		// clock advances so the wheel reclaims the tombstones as in a run.
		s := eventq.NewScheduler()
		nop := func() {}
		return func(n int) time.Duration {
			return timed(n, func(i int) {
				s.After(10*eventq.Millisecond, nop).Cancel()
				if i&511 == 511 {
					s.RunUntil(s.Now() + 512*eventq.Microsecond)
				}
			})
		}
	}},
	{"packet.pool_cycle_ns", 1, func() func(int) time.Duration {
		pl := packet.NewPool()
		return func(n int) time.Duration {
			return timed(n, func(i int) { pl.Put(dataPacket(pl, i)) })
		}
	}},
	{"packet.wire_roundtrip_ns", 1, func() func(int) time.Duration {
		// The shard hand-off: snapshot, free into the source arena, borrow
		// from the destination arena, restore, free.
		src, dst := packet.NewPool(), packet.NewPool()
		return func(n int) time.Duration {
			return timed(n, func(i int) {
				p := dataPacket(src, i)
				w := p.Snapshot()
				src.Put(p)
				q := dst.Get()
				w.Restore(q)
				dst.Put(q)
			})
		}
	}},
	{"topology.fattree_k8_build_ms", 1e6, func() func(int) time.Duration {
		return func(n int) time.Duration {
			return timed(n, func(int) { sinkInt += topology.FatTree(8, topology.DefaultLink, 1).NumNodes() })
		}
	}},
	{"topology.fattree_k16_build_ms", 1e6, func() func(int) time.Duration {
		return func(n int) time.Duration {
			return timed(n, func(int) { sinkInt += topology.FatTree(16, topology.DefaultLink, 1).NumNodes() })
		}
	}},
	{"topology.partition_us", 1e3, func() func(int) time.Duration {
		topo := topology.FatTree(16, topology.DefaultLink, 1)
		return func(n int) time.Duration {
			return timed(n, func(int) { sinkInt += len(topo.Partition(2)) })
		}
	}},
	{"topology.nexthops_ns", 1, func() func(int) time.Duration {
		topo := topology.FatTree(8, topology.DefaultLink, 1)
		hosts, sws := topo.Hosts(), topo.Switches()
		return func(n int) time.Duration {
			return timed(n, func(i int) { sinkInt += len(topo.NextHops(sws[i%len(sws)], hosts[i%len(hosts)])) })
		}
	}},
	{"queue.droptail_cycle_ns", 1, func() func(int) time.Duration {
		return queueCycle(queue.NewDropTail(100, 20), 10)
	}},
	{"queue.droptail_full_ns", 1, func() func(int) time.Duration {
		// The incast case: the queue is full, the check says so and the
		// enqueue is refused.
		pl := packet.NewPool()
		q := queue.NewDropTail(100, 20)
		for i := 0; i < 100; i++ {
			q.Enqueue(dataPacket(pl, i))
		}
		p := dataPacket(pl, 0)
		return func(n int) time.Duration {
			return timed(n, func(int) {
				if q.Full() && !q.Enqueue(p).Accepted {
					sinkInt++
				}
			})
		}
	}},
	{"queue.shared_cycle_ns", 1, func() func(int) time.Duration {
		return queueCycle(queue.NewSharedQueue(queue.NewSharedPool(1133, 1, 10), 20), 10)
	}},
	{"queue.pfabric_cycle_ns", 1, func() func(int) time.Duration {
		// At the paper's 24-packet occupancy: take the best packet out and
		// put it back with a new priority.
		pl := packet.NewPool()
		q := queue.NewPFabric(24)
		x := rng.Stream(7)
		for i := 0; i < 24; i++ {
			p := dataPacket(pl, i)
			p.Priority = x.Int63n(1 << 20)
			q.Enqueue(p)
		}
		return func(n int) time.Duration {
			return timed(n, func(int) {
				p := q.Dequeue()
				p.Priority = x.Int63n(1 << 20)
				q.Enqueue(p)
			})
		}
	}},
	{"core.random_select_ns", 1, func() func(int) time.Duration {
		return selectDetour(core.NewRandom())
	}},
	{"core.loadaware_select_ns", 1, func() func(int) time.Duration {
		return selectDetour(core.NewLoadAware())
	}},
	{"hwlookup.decide_ns", 1, func() func(int) time.Duration {
		return func(n int) time.Duration {
			return timed(n, func(i int) { sinkInt += hwlookup.Decide(1, 0xf2, 0x0f, uint64(i)).Port })
		}
	}},
	{"switching.forward_ns", 1, func() func(int) time.Duration {
		// Switch.Receive with the desired port free, through serialisation
		// to delivery at the far end (two events).
		s := eventq.NewScheduler()
		pl := packet.NewPool()
		sw, _, remote := edgeSwitch(s)
		return func(n int) time.Duration {
			return timed(n, func(i int) {
				p := dataPacket(pl, i)
				p.Dst = remote
				sw.Receive(p, 0)
				s.Run()
			})
		}
	}},
	{"switching.detour_ns", 1, func() func(int) time.Duration {
		// The same with the desired (host-facing) port paused and full:
		// enqueue refused, detour selected, packet sent up instead.
		s := eventq.NewScheduler()
		pl := packet.NewPool()
		sw, local, _ := edgeSwitch(s)
		for pi, op := range sw.Ports() {
			if sw.IsHostPort(pi) {
				op.SetPaused(true)
				for !op.Q.Full() {
					op.Enqueue(dataPacket(pl, 0))
				}
			}
		}
		return func(n int) time.Duration {
			return timed(n, func(i int) {
				p := dataPacket(pl, i)
				p.Dst = local
				sw.Receive(p, 4)
				s.Run()
			})
		}
	}},
	{"switching.outport_cycle_ns", 1, func() func(int) time.Duration {
		s := eventq.NewScheduler()
		pl := packet.NewPool()
		op := switching.NewOutPort(s, queue.NewDropTail(100, 20), 1e9, 1500*eventq.Nanosecond, freeSink{}, 0)
		return func(n int) time.Duration {
			return timed(n, func(i int) {
				op.Enqueue(dataPacket(pl, i))
				s.Run()
			})
		}
	}},
	{"transport.segment_ns", 1, func() func(int) time.Duration {
		// DCTCP flows of 512 segments over a loss-free 10 us pipe: per
		// segment, the sender emits, the receiver ACKs, the sender takes
		// the ACK.
		const segs = 512
		s := eventq.NewScheduler()
		var snd *transport.Sender
		var rcv *transport.Receiver
		var wire []*packet.Packet // in flight, in emission order
		deliver := func() {
			p := wire[0]
			wire = wire[1:]
			if p.Kind == packet.Data {
				rcv.OnData(p)
			} else {
				snd.OnAck(p)
			}
			packet.Free(p)
		}
		env := transport.Env{Sched: s, Pool: packet.NewPool(), Emit: func(p *packet.Packet) {
			wire = append(wire, p)
			s.After(10*eventq.Microsecond, deliver)
		}}
		cfg := transport.DefaultConfig(transport.DCTCP)
		return func(n int) time.Duration {
			flows := (n + segs - 1) / segs
			t0 := time.Now()
			for f := 0; f < flows; f++ {
				wire = wire[:0]
				snd = transport.NewSender(env, cfg, packet.FlowID(f), 0, 1, segs*packet.DefaultMSS)
				rcv = transport.NewReceiver(env, cfg, packet.FlowID(f), 1, segs*packet.DefaultMSS)
				snd.Start()
				s.Run()
				if !rcv.Done() {
					panic("benchmark: transport kernel flow did not finish")
				}
			}
			return time.Since(t0) * time.Duration(n) / time.Duration(flows*segs)
		}
	}},
	{"host.send_recv_ns", 1, func() func(int) time.Duration {
		s := eventq.NewScheduler()
		pl := packet.NewPool()
		a, b := host.New(0), host.New(1)
		a.NIC = switching.NewOutPort(s, queue.NewDropTail(100, 0), 1e9, 1500*eventq.Nanosecond, b, 0)
		return func(n int) time.Duration {
			return timed(n, func(i int) {
				a.Send(dataPacket(pl, i))
				s.Run()
			})
		}
	}},
	{"workload.sample_ns", 1, func() func(int) time.Duration {
		dist := workload.WebSearchBackground()
		r := rng.New(1, "bench/workload")
		return func(n int) time.Duration {
			return timed(n, func(int) { sinkU64 += uint64(dist.Sample(r)) })
		}
	}},
	{"metrics.on_deliver_ns", 1, func() func(int) time.Duration {
		pl := packet.NewPool()
		p := dataPacket(pl, 1)
		return func(n int) time.Duration {
			c := metrics.NewCollector(eventq.NewScheduler())
			return timed(n, func(i int) {
				p.Detours = i & 1
				c.OnDeliver(p)
			})
		}
	}},
	{"metrics.flow_lifecycle_ns", 1, func() func(int) time.Duration {
		return func(n int) time.Duration {
			c := metrics.NewCollector(eventq.NewScheduler())
			return timed(n, func(i int) {
				c.FlowStarted(packet.FlowID(i), metrics.ClassBackground, 5000, -1)
				c.FlowDone(packet.FlowID(i))
			})
		}
	}},
	{"stats.percentile_us", 1e3, func() func(int) time.Duration {
		// A fresh 100k-sample set each time: the percentile pays the sort.
		x := rng.Stream(11)
		vals := make([]float64, 100_000)
		for i := range vals {
			vals[i] = float64(x.Int63n(1 << 30))
		}
		return func(n int) time.Duration {
			return timed(n, func(int) {
				var s stats.Sample
				s.AddAll(vals)
				sinkF += s.Percentile(99)
			})
		}
	}},
	{"metrics.merge_ms", 1e6, func() func(int) time.Duration {
		// Two shard collectors of 20k flows each, half of them finished.
		shard := func(base int) *metrics.Collector {
			c := metrics.NewCollector(eventq.NewScheduler())
			for i := 0; i < 20_000; i++ {
				id := packet.FlowID(base + i)
				c.FlowStarted(id, metrics.ClassBackground, 5000, -1)
				if i&1 == 0 {
					c.FlowDone(id)
				}
			}
			return c
		}
		a, b := shard(0), shard(20_000)
		return func(n int) time.Duration {
			return timed(n, func(int) {
				m := metrics.NewCollector(eventq.NewScheduler())
				m.MergeFrom(a)
				m.MergeFrom(b)
				sinkInt += m.CompletedFlows(metrics.ClassBackground)
			})
		}
	}},
	{"fluid.tick_us", 1e3, func() func(int) time.Duration {
		// long_hybrid's steady state: 128 flows on 6-link paths over a
		// K=8 fabric's 768 directed links, no packet load.
		s := eventq.NewScheduler()
		tick := 100 * eventq.Microsecond
		e := fluid.NewEngine(s, tick)
		links := make([]*fluid.Link, 768)
		for i := range links {
			links[i] = &fluid.Link{CapBps: 1e9, QLen: func() int { return 0 }, PktBytes: func() uint64 { return 0 },
				SetFold: func(eventq.Time) {}, StandingPkts: 20, PromotePkts: 50}
			e.AddLink(links[i])
		}
		e.Start()
		for f := 0; f < 128; f++ {
			path := make([]*fluid.Link, 6)
			for h := range path {
				path[h] = links[(f*6+h*131)%len(links)]
			}
			e.Admit(&fluid.Flow{ID: uint64(f), Path: path, Remaining: 1 << 50,
				OnDeliver: func(int64) {}, OnComplete: func() {}, OnPromote: func(int64) {}})
		}
		return func(n int) time.Duration {
			t0 := time.Now()
			s.RunUntil(s.Now() + eventq.Time(n)*tick)
			return time.Since(t0)
		}
	}},
	{"pdes.window_ns", 1, func() func(int) time.Duration {
		// Two shards with nothing to do: the pure barrier.
		return func(n int) time.Duration {
			t0 := time.Now()
			pdes.Run(2, 1, eventq.Time(n-1), func(int, eventq.Time) {},
				func(int) []pdes.Message { return nil }, func(pdes.Message) {})
			return time.Since(t0)
		}
	}},
	{"pdes.msg_ns", 1, func() func(int) time.Duration {
		// Per message, with 64 crossing from each shard in every window so
		// that the barrier is amortised: flush, merge-sort, inject.
		const perShard = 64
		deliver := func() {}
		out := [2][]pdes.Message{}
		return func(n int) time.Duration {
			windows := (n + 2*perShard - 1) / (2 * perShard)
			var seq [2]uint64
			t0 := time.Now()
			pdes.Run(2, 10, eventq.Time(windows*10-1),
				func(sh int, limit eventq.Time) {
					out[sh] = out[sh][:0]
					for i := 0; i < perShard; i++ {
						seq[sh]++
						out[sh] = append(out[sh], pdes.Message{At: limit + 1 + eventq.Time(i%7), Pri: int64(1 + sh*perShard + i), Seq: seq[sh], Dst: 1 - sh, Deliver: deliver})
					}
				},
				func(sh int) []pdes.Message { return out[sh] },
				func(m pdes.Message) { sinkU64 += m.Seq })
			return time.Since(t0) * time.Duration(n) / time.Duration(windows*2*perShard)
		}
	}},
	{"runner.map_task_ns", 1, func() func(int) time.Duration {
		workers := runtime.GOMAXPROCS(0)
		return func(n int) time.Duration {
			t0 := time.Now()
			sinkInt += len(runner.Map(workers, n, func(i int) int { return i }))
			return time.Since(t0)
		}
	}},
	{"rng.derive_ns", 1, func() func(int) time.Duration {
		return func(n int) time.Duration {
			return timed(n, func(i int) { sinkU64 += rng.Derive2(1, "link/jitter", i, 3) })
		}
	}},
}

// queueCycle is enqueue + dequeue on q held at the given occupancy.
func queueCycle(q queue.Queue, occupancy int) func(int) time.Duration {
	pl := packet.NewPool()
	for i := 0; i < occupancy; i++ {
		q.Enqueue(dataPacket(pl, i))
	}
	return func(n int) time.Duration {
		return timed(n, func(int) { q.Enqueue(q.Dequeue()) })
	}
}

// selectDetour is one detour decision on a full desired port.
func selectDetour(pol core.Policy) func(int) time.Duration {
	view := &fakeView{lens: [8]int{100, 3, 0, 7, 12, 40, 12, 99}}
	p := dataPacket(packet.NewPool(), 1)
	r := rng.New(1, "bench/detour")
	return func(n int) time.Duration {
		return timed(n, func(int) { sinkInt += pol.SelectDetour(view, p, 0, r) })
	}
}
