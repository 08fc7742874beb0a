// Package host models end hosts: a NIC output port plus the demultiplexing
// of arriving packets to transport endpoints. Hosts never forward transit
// traffic (the reason DIBS must not detour to host ports).
package host

import (
	"dibs/internal/packet"
	"dibs/internal/switching"
	"dibs/internal/transport"
)

// Host is one end host.
type Host struct {
	ID packet.NodeID
	// NIC is the host's single output port toward its edge switch.
	NIC *switching.OutPort

	// flows is the table of transport endpoints this host demultiplexes
	// to: its network's shared table, or a private one made on the first
	// Add* when the host was never given one (see UseFlows).
	flows *Flows

	// sendFn is Send bound once at Init: every flow's transport.Env wants
	// an emit func, and taking the method value per flow would allocate a
	// fresh binding each time.
	sendFn func(p *packet.Packet)

	// OnDeliver, when set, observes every packet arriving at this host
	// (metrics). Called before demultiplexing.
	OnDeliver func(p *packet.Packet)
	// TraceEveryNth, when > 0, attaches an empty path trace that switches
	// will fill (Figure 1) to every Nth data packet this host emits.
	TraceEveryNth int
	dataSent      int

	// NICDrops counts packets refused by the NIC queue (should stay 0
	// with a reasonably sized host queue).
	NICDrops uint64
}

// New creates a host. The NIC must be wired by the network builder.
func New(id packet.NodeID) *Host { return new(Host).Init(id) }

// Init prepares h — allocated by the caller, typically as one element of an
// en-bloc slice covering every host in the topology — as the host with the
// given id. It has no endpoint table until UseFlows or the first Add*;
// Receive tolerates the missing table (every lookup misses).
func (h *Host) Init(id packet.NodeID) *Host {
	h.ID = id
	h.sendFn = h.Send
	return h
}

// SendFn returns Send bound once at Init (see sendFn).
func (h *Host) SendFn() func(p *packet.Packet) { return h.sendFn }

// Send enqueues a locally generated packet on the NIC. A refused packet is
// a terminal path: the host counts it and returns it to the pool.
func (h *Host) Send(p *packet.Packet) {
	if p.Kind == packet.Data && h.TraceEveryNth > 0 {
		if h.dataSent++; h.dataSent%h.TraceEveryNth == 0 {
			p.AttachTrace()
		}
	}
	if r := h.NIC.Enqueue(p); !r.Accepted {
		h.NICDrops++
		packet.Free(p)
	}
}

// Receive implements switching.Handler: demultiplex to the flow endpoint.
// Delivery is a terminal path — the endpoints and hooks read the packet but
// never retain it, so it goes back to the pool afterwards.
func (h *Host) Receive(p *packet.Packet, port int) {
	if h.OnDeliver != nil {
		h.OnDeliver(p)
	}
	switch p.Kind {
	case packet.Data:
		if r := h.flows.Receiver(p.Flow); r != nil && r.Host == h.ID {
			r.OnData(p)
		}
	case packet.Ack:
		if s := h.flows.Sender(p.Flow); s != nil && s.Src == h.ID {
			s.OnAck(p)
		}
	}
	packet.Free(p)
}

// UseFlows makes t the table h registers and looks up its endpoints in. A
// network gives every host the same table.
func (h *Host) UseFlows(t *Flows) { h.flows = t }

func (h *Host) table() *Flows {
	if h.flows == nil {
		h.flows = new(Flows)
	}
	return h.flows
}

// AddSender registers the sending endpoint of a flow originating here.
func (h *Host) AddSender(s *transport.Sender) {
	t := h.table()
	t.Reserve(int(s.Flow) + 1)
	t.senders[s.Flow] = s
}

// AddReceiver registers the receiving endpoint of a flow terminating here.
func (h *Host) AddReceiver(r *transport.Receiver) {
	t := h.table()
	t.Reserve(int(r.Flow) + 1)
	t.receivers[r.Flow] = r
}

// RemoveSender unregisters a completed flow's sender.
func (h *Host) RemoveSender(flow packet.FlowID) {
	if s := h.flows.Sender(flow); s != nil && s.Src == h.ID {
		h.flows.senders[flow] = nil
	}
}

// RemoveReceiver unregisters a completed flow's receiver.
func (h *Host) RemoveReceiver(flow packet.FlowID) {
	if r := h.flows.Receiver(flow); r != nil && r.Host == h.ID {
		h.flows.receivers[flow] = nil
	}
}

// ActiveFlows returns the number of registered endpoints (senders +
// receivers) at this host, for tests and leak checks. It scans the whole
// table.
func (h *Host) ActiveFlows() int {
	if h.flows == nil {
		return 0
	}
	n := 0
	for _, s := range h.flows.senders {
		if s != nil && s.Src == h.ID {
			n++
		}
	}
	for _, r := range h.flows.receivers {
		if r != nil && r.Host == h.ID {
			n++
		}
	}
	return n
}

// Flows is a table of transport endpoints indexed by FlowID. FlowIDs are
// dense from 0, so a slice index replaces a per-host map lookup on every
// delivered packet. A network's hosts share one table: flow f's sender slot
// is written only at f's source host and its receiver slot only at f's
// destination, so shard workers sharing it never write the same word, as
// long as nothing grows it while they run (Reserve before the run).
type Flows struct {
	senders   []*transport.Sender
	receivers []*transport.Receiver
}

// Reserve grows the table to hold at least flows 0..n-1.
func (t *Flows) Reserve(n int) {
	if n > len(t.senders) {
		t.senders = append(t.senders, make([]*transport.Sender, n-len(t.senders))...)
		t.receivers = append(t.receivers, make([]*transport.Receiver, n-len(t.receivers))...)
	}
}

// Sender returns flow's registered sender, or nil (also for a nil t).
func (t *Flows) Sender(flow packet.FlowID) *transport.Sender {
	if t == nil || uint64(flow) >= uint64(len(t.senders)) {
		return nil
	}
	return t.senders[flow]
}

// Receiver returns flow's registered receiver, or nil (also for a nil t).
func (t *Flows) Receiver(flow packet.FlowID) *transport.Receiver {
	if t == nil || uint64(flow) >= uint64(len(t.receivers)) {
		return nil
	}
	return t.receivers[flow]
}
