package host

import (
	"testing"

	"dibs/internal/eventq"
	"dibs/internal/packet"
	"dibs/internal/queue"
	"dibs/internal/switching"
	"dibs/internal/transport"
)

type capture struct{ pkts []*packet.Packet }

func (c *capture) Receive(p *packet.Packet, port int) { c.pkts = append(c.pkts, p) }

func newHost(sched *eventq.Scheduler, qcap int) (*Host, *capture) {
	h := New(5)
	c := &capture{}
	h.NIC = switching.NewOutPort(sched, queue.NewDropTail(qcap, 0), 1_000_000_000, 0, c, 0)
	return h, c
}

func TestSendForwardsToNIC(t *testing.T) {
	sched := eventq.NewScheduler()
	h, c := newHost(sched, 10)
	h.Send(&packet.Packet{Kind: packet.Data, Flow: 1, PayloadBytes: 100})
	sched.Run()
	if len(c.pkts) != 1 {
		t.Fatal("packet not transmitted")
	}
	if h.NICDrops != 0 {
		t.Fatal("spurious NIC drop")
	}
}

func TestNICDropCounting(t *testing.T) {
	sched := eventq.NewScheduler()
	h, _ := newHost(sched, 1)
	// Refused packets hit a terminal path (Free), so they must be pooled:
	// StrictFree turns a literal here into a panic.
	pl := packet.NewPool()
	for i := 0; i < 5; i++ {
		p := pl.Get()
		p.Kind = packet.Data
		p.Flow = 1
		p.PayloadBytes = 1460
		h.Send(p)
	}
	// 1 transmitting + 1 queued = 2 accepted, 3 dropped.
	if h.NICDrops != 3 {
		t.Fatalf("NIC drops = %d, want 3", h.NICDrops)
	}
	if pl.Returned() != 3 {
		t.Fatalf("dropped packets returned to pool = %d, want 3", pl.Returned())
	}
	sched.Run()
}

func TestTraceSampling(t *testing.T) {
	sched := eventq.NewScheduler()
	h, _ := newHost(sched, 100)
	h.TraceEveryNth = 2
	p1 := &packet.Packet{Kind: packet.Data, PayloadBytes: 10}
	p2 := &packet.Packet{Kind: packet.Data, PayloadBytes: 10}
	ack := &packet.Packet{Kind: packet.Ack}
	h.Send(p1)
	h.Send(p2)
	h.Send(ack)
	if p1.Trace != nil || p2.Trace == nil {
		t.Fatal("trace sampling stride broken")
	}
	if ack.Trace != nil {
		t.Fatal("ACKs must not be trace-sampled")
	}
	sched.Run()
}

func TestReceiveDemux(t *testing.T) {
	sched := eventq.NewScheduler()
	h, _ := newHost(sched, 100)
	cfg := transport.DefaultConfig(transport.DCTCP)
	// Delivery is a terminal path (Host.Receive frees), so every injected
	// packet must come from a pool under StrictFree.
	pl := packet.NewPool()
	inject := func(kind packet.Kind, flow packet.FlowID, seq int64, payload int) *packet.Packet {
		p := pl.Get()
		p.Kind = kind
		p.Flow = flow
		p.Seq = seq
		p.PayloadBytes = payload
		return p
	}

	var acksSeen []*packet.Packet
	env := transport.Env{Sched: sched, Emit: func(p *packet.Packet) { acksSeen = append(acksSeen, p) }}
	rcv := transport.NewReceiver(env, cfg, 7, 5, 1460)
	h.AddReceiver(rcv)

	delivered := 0
	h.OnDeliver = func(p *packet.Packet) { delivered++ }

	// Data for the registered flow reaches the receiver (which ACKs).
	h.Receive(inject(packet.Data, 7, 0, 1460), 0)
	if len(acksSeen) != 1 {
		t.Fatal("receiver did not process data")
	}
	if !rcv.Done() {
		t.Fatal("receiver should be complete")
	}
	// Data for an unknown flow is observed but harmless.
	h.Receive(inject(packet.Data, 99, 0, 10), 0)
	if delivered != 2 {
		t.Fatalf("OnDeliver saw %d packets, want 2", delivered)
	}

	// ACK demux to a sender.
	sndEnv := transport.Env{Sched: sched, Emit: func(p *packet.Packet) {}}
	snd := transport.NewSender(sndEnv, cfg, 8, 5, 6, 1460)
	snd.Start()
	h.AddSender(snd)
	h.Receive(inject(packet.Ack, 8, 1460, 0), 0)
	if !snd.Done() {
		t.Fatal("sender did not process ACK")
	}
	sched.Run()
}

func TestFlowRegistryLifecycle(t *testing.T) {
	sched := eventq.NewScheduler()
	h, _ := newHost(sched, 100)
	cfg := transport.DefaultConfig(transport.DCTCP)
	env := transport.Env{Sched: sched, Emit: func(p *packet.Packet) {}}
	h.AddSender(transport.NewSender(env, cfg, 1, 5, 6, 100))
	h.AddReceiver(transport.NewReceiver(env, cfg, 2, 5, 100))
	if h.ActiveFlows() != 2 {
		t.Fatalf("active = %d", h.ActiveFlows())
	}
	h.RemoveSender(1)
	h.RemoveReceiver(2)
	if h.ActiveFlows() != 0 {
		t.Fatalf("active after removal = %d", h.ActiveFlows())
	}
	// Removing unknown flows is a no-op.
	h.RemoveSender(42)
	h.RemoveReceiver(42)
}
