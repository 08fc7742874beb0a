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

	senders   map[packet.FlowID]*transport.Sender
	receivers map[packet.FlowID]*transport.Receiver

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
// given id. Endpoint maps are allocated lazily on first Add*, so hosts that
// only ever forward NIC traffic (or never see a flow at all) cost no map
// allocations; Receive tolerates the nil maps (lookups on a nil map are
// defined and miss).
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
		if r := h.receivers[p.Flow]; r != nil {
			r.OnData(p)
		}
	case packet.Ack:
		if s := h.senders[p.Flow]; s != nil {
			s.OnAck(p)
		}
	}
	packet.Free(p)
}

// AddSender registers the sending endpoint of a flow originating here.
func (h *Host) AddSender(s *transport.Sender) {
	if h.senders == nil {
		h.senders = make(map[packet.FlowID]*transport.Sender)
	}
	h.senders[s.Flow] = s
}

// AddReceiver registers the receiving endpoint of a flow terminating here.
func (h *Host) AddReceiver(r *transport.Receiver) {
	if h.receivers == nil {
		h.receivers = make(map[packet.FlowID]*transport.Receiver)
	}
	h.receivers[r.Flow] = r
}

// RemoveSender unregisters a completed flow's sender.
func (h *Host) RemoveSender(flow packet.FlowID) { delete(h.senders, flow) }

// RemoveReceiver unregisters a completed flow's receiver.
func (h *Host) RemoveReceiver(flow packet.FlowID) { delete(h.receivers, flow) }

// ActiveFlows returns the number of registered endpoints (senders +
// receivers), for tests and leak checks.
func (h *Host) ActiveFlows() int { return len(h.senders) + len(h.receivers) }
