package netsim

import (
	"fmt"

	"dibs/internal/core"
	"dibs/internal/eventq"
	"dibs/internal/fluid"
	"dibs/internal/packet"
	"dibs/internal/queue"
	"dibs/internal/switching"
	"dibs/internal/transport"
)

// mode returns the effective simulation mode ("" normalizes to packet).
func (c *Config) mode() SimMode {
	if c.Mode == "" {
		return ModePacket
	}
	return c.Mode
}

// Defaulted fluid tunables (0 selects these).
func (c *Config) fluidTick() eventq.Time {
	if c.FluidTick > 0 {
		return c.FluidTick
	}
	return 100 * eventq.Microsecond
}

func (c *Config) fluidStableWindows() int {
	if c.FluidStableWindows > 0 {
		return c.FluidStableWindows
	}
	return 8
}

func (c *Config) fluidMinBytes() int64 {
	if c.FluidMinBytes > 0 {
		return c.FluidMinBytes
	}
	return 1 << 20
}

// promoteFrac is the fraction of a port's queue capacity — counting both
// real packets and the folded fluid share — at which fluid flows crossing
// the port promote back to packets. Half the buffer is well above any
// steady-state standing queue yet fires early in a genuine incast, while
// per-packet physics (detours, drops, retransmissions) still have headroom
// to matter.
const promoteFrac = 0.5

// Candidate fidelity states.
const (
	candPacket  uint8 = iota // full packet fidelity, demotable
	candQuiesce              // demotion requested, in-flight window draining
	candFluid                // under rate-model custody
	candDone                 // flow completed
)

// fluidCand is one hybrid-mode flow eligible for fluid custody.
type fluidCand struct {
	id       packet.FlowID
	src, dst packet.NodeID
	snd      *transport.Sender
	rcv      *transport.Receiver
	state    uint8
	path     []*fluid.Link // computed lazily at first demotion scan
}

// fluidState wires the fluid engine into one network: the per-link fluid
// views (indexed [node][port], host NICs at port 0), the hybrid demotion
// candidates, and the fidelity-boundary bookkeeping.
type fluidState struct {
	n   *Network
	eng *fluid.Engine

	links [][]*fluid.Link
	cands []*fluidCand

	demotions uint64
}

// buildFluid assembles the fluid engine over the finished network. Every
// port gets a fluid link view. Ticking starts here, not in Run, so the
// first tick's event sorts ahead of the run's same-instant flow opens.
func (n *Network) buildFluid() {
	cfg := &n.Cfg
	fs := &fluidState{
		n:     n,
		eng:   fluid.NewEngine(n.Sched, cfg.fluidTick()),
		links: make([][]*fluid.Link, n.Topo.NumNodes()),
	}
	// The standing queue a long packet flow would keep at a bottleneck.
	// DCTCP's instantaneous-threshold sawtooth oscillates between drain
	// and the mark, so its time-average occupancy — what a transiting
	// packet waits behind on average — is about half the marking
	// threshold (measured packet-mode switch queues here average ~K/2).
	mark := cfg.MarkAtPkts
	if mark <= 0 {
		if cfg.Buffer == BufferDropTail {
			mark = cfg.BufferPkts / 5
		} else {
			mark = 20
		}
	}
	standing := mark / 2
	if standing < 1 {
		standing = 1
	}
	promoteCap := cfg.BufferPkts
	if cfg.Buffer != BufferDropTail {
		promoteCap = 100
	}
	promote := int(promoteFrac * float64(promoteCap))
	if promote < 1 {
		promote = 1
	}
	// NIC-bottlenecked flows keep their standing queue at the host queue;
	// with NIC marking on, DCTCP pins it around that threshold instead of
	// the switch one.
	hostStanding := standing
	if cfg.HostMarkAtPkts > 0 {
		if hostStanding = cfg.HostMarkAtPkts / 2; hostStanding < 1 {
			hostStanding = 1
		}
	}
	for _, hid := range n.Topo.Hosts() {
		// Host NICs share sender capacity among that host's flows but
		// never see transit incast; no promotion trigger there.
		fs.links[hid] = []*fluid.Link{fs.makeLink(n.HostsByID[hid].NIC, hostStanding, 0)}
	}
	for _, sid := range n.Topo.Switches() {
		ports := n.Switches[sid].Ports()
		ls := make([]*fluid.Link, len(ports))
		for pi, op := range ports {
			ls[pi] = fs.makeLink(op, standing, promote)
		}
		fs.links[sid] = ls
	}
	if cfg.mode() == ModeHybrid {
		fs.eng.OnTick = fs.scan
	}
	n.fluid = fs
	fs.eng.Start()
}

// makeLink registers op's fluid view with the engine.
func (fs *fluidState) makeLink(op *switching.OutPort, standing, promote int) *fluid.Link {
	l := &fluid.Link{
		CapBps:        op.RateBps(),
		QLen:          op.QueueLen,
		PktBytes:      func() uint64 { return op.RxBytes },
		SetFold:       op.SetFluid,
		StandingPkts:  standing,
		StandingDelay: op.SerializationTime(standing * (packet.DefaultMSS + packet.HeaderBytes)),
		PromotePkts:   promote,
	}
	if q, ok := op.Q.(interface{ SetFluid(*queue.FluidShare) }); ok {
		share := &queue.FluidShare{}
		q.SetFluid(share)
		l.Share = share
	}
	fs.eng.AddLink(l)
	return l
}

// fluidPath replicates the packet world's route for a flow: the host NIC,
// then each switch's flow-level ECMP choice (the same hash and per-switch
// seed switching.NewSwitch uses), down to the destination host.
func (fs *fluidState) fluidPath(id packet.FlowID, src, dst packet.NodeID) []*fluid.Link {
	n := fs.n
	links := []*fluid.Link{fs.links[src][0]}
	node := n.Topo.Ports(src)[0].Peer
	for hops := 0; node != dst; hops++ {
		if hops > 64 {
			panic("netsim: fluid path exceeds 64 hops (routing loop?)")
		}
		nhs := n.Topo.NextHops(node, dst)
		if len(nhs) == 0 {
			panic(fmt.Sprintf("netsim: fluid path %d->%d: no route at node %d", src, dst, node))
		}
		seed := core.FlowHash(packet.FlowID(node), 0xD1B5) | 1
		pi := int(nhs[core.FlowHash(id, seed)%uint64(len(nhs))])
		links = append(links, fs.links[node][pi])
		node = n.Topo.Ports(node)[pi].Peer
	}
	return links
}

// registerFlow hooks one flow into the fluid layer at sender-creation
// time. In pure fluid mode the flow goes straight under rate custody (the
// caller must NOT also Start the sender); in hybrid mode large flows
// become demotion candidates and start as packets. Returns true when the
// caller should skip snd.Start().
func (fs *fluidState) registerFlow(snd *transport.Sender, rcv *transport.Receiver) bool {
	cfg := &fs.n.Cfg
	c := &fluidCand{id: snd.Flow, src: snd.Src, dst: snd.Dst, snd: snd, rcv: rcv}
	switch cfg.mode() {
	case ModeFluid:
		fs.cands = append(fs.cands, c)
		snd.StartFluid()
		fs.admit(c, snd.Total)
		return true
	case ModeHybrid:
		if snd.Total >= cfg.fluidMinBytes() {
			fs.cands = append(fs.cands, c)
		}
		return false
	default:
		return false
	}
}

// scan is the hybrid demotion pass, run at the end of every engine tick:
// any candidate whose sender has held a stable cwnd long enough — and
// whose path is not currently hot — starts the quiesce hand-off.
func (fs *fluidState) scan() {
	cfg := &fs.n.Cfg
	k := cfg.fluidStableWindows()
	minBytes := cfg.fluidMinBytes()
	for _, c := range fs.cands {
		if c.state != candPacket {
			continue
		}
		if c.snd.Done() {
			c.state = candDone
			continue
		}
		if c.snd.StableWindows() < k || c.snd.Remaining() < minBytes {
			continue
		}
		if c.path == nil {
			c.path = fs.fluidPath(c.id, c.src, c.dst)
		}
		// Demoting into an incast-regime link would promote right back;
		// keep packet fidelity while any path link is hot.
		hot := false
		for _, l := range c.path {
			if l.Hot() {
				hot = true
				break
			}
		}
		if hot {
			continue
		}
		c.state = candQuiesce
		cand := c
		c.snd.StartFluidHandoff(func(remaining int64) {
			if remaining <= 0 {
				cand.state = candDone
				return
			}
			fs.admit(cand, remaining)
		})
	}
}

// admit places a candidate's remaining bytes under rate-model custody.
func (fs *fluidState) admit(c *fluidCand, remaining int64) {
	if c.path == nil {
		c.path = fs.fluidPath(c.id, c.src, c.dst)
	}
	fl := &fluid.Flow{ID: uint64(c.id), Path: c.path, Remaining: remaining}
	fl.OnDeliver = func(n int64) {
		// Receiver first (bytes arrive), then the sender's cumulative ack.
		c.rcv.FluidDeliver(n)
		c.snd.FluidAcked(n)
	}
	fl.OnComplete = func() { c.state = candDone }
	fl.OnPromote = func(rem int64) {
		c.state = candPacket
		c.snd.ResumeFromFluid()
	}
	c.state = candFluid
	fs.demotions++
	fs.eng.Admit(fl)
}
