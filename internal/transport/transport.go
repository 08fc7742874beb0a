// Package transport implements the end-host protocols of the DIBS
// evaluation: DCTCP (the paper's companion congestion control), classic
// TCP-NewReno-style loss recovery, and the minimal pFabric host transport
// of §5.8.
//
// A flow is a one-directional transfer of Total bytes from Src to Dst. The
// Sender segments the byte stream into MSS-sized packets under a congestion
// window; the Receiver reassembles (tolerating the reordering DIBS
// introduces) and returns one cumulative ACK per data segment, echoing the
// segment's ECN CE bit. Connections are pre-established, as in the paper's
// testbed (§5.2 modified iperf to pre-establish TCP connections), so there
// is no handshake.
//
// By default the receiver acks every segment; Config.DelayedAck enables
// the DCTCP paper's delayed-ACK ECN-echo state machine instead. Remaining
// simplifications relative to a kernel stack, documented in DESIGN.md:
// go-back-N on timeout and RTT sampling via sender timestamps echoed by
// the receiver.
package transport

import (
	"fmt"

	"dibs/internal/eventq"
	"dibs/internal/packet"
)

// Env provides a transport endpoint's access to the simulated world.
type Env struct {
	// Sched is the simulation scheduler (clock + timers).
	Sched *eventq.Scheduler
	// Emit hands a packet to the host NIC for transmission.
	Emit func(p *packet.Packet)
	// Pool supplies the packet nodes for emitted segments and ACKs; the
	// network gives every endpoint the per-run pool. When nil (unit tests
	// that build an Env by hand), the constructor creates a private pool so
	// emission behaves identically.
	Pool *packet.Pool
}

// Variant selects the congestion-control behavior.
type Variant uint8

const (
	// DCTCP reacts to ECN marks with the proportional alpha-based window
	// decrease (Alizadeh et al.); the paper couples DIBS with DCTCP.
	DCTCP Variant = iota
	// NewReno is loss-based TCP: no ECN reaction, standard fast
	// retransmit and timeout behavior.
	NewReno
	// PFabric is the minimal transport of pFabric (§5.8): remaining-size
	// priority stamped on every packet, a fixed small RTO, no fast
	// retransmit, and slow-start-only window dynamics.
	PFabric
)

func (v Variant) String() string {
	switch v {
	case DCTCP:
		return "dctcp"
	case NewReno:
		return "newreno"
	case PFabric:
		return "pfabric"
	default:
		return fmt.Sprintf("Variant(%d)", uint8(v))
	}
}

// The transport's mechanism constants: Table 1's initial window and DCTCP
// gain, §5.8's pFabric RTO, and the stack defaults the paper leaves to NS-3.
// No experiment varies them.
const (
	// initCwnd is the initial congestion window in packets (Table 1: 10).
	initCwnd = 10
	// maxCwnd caps the window in packets.
	maxCwnd = 10000
	// maxRTO caps exponential backoff.
	maxRTO = 2 * eventq.Second
	// dctcpGain is the alpha EWMA gain g (Table 1: 1/16).
	dctcpGain = 1.0 / 16
	// pfabricRTO is pFabric's fixed retransmission timeout at 1 Gbps (§5.8):
	// it bypasses RTT estimation and backoff entirely.
	pfabricRTO = 350 * eventq.Microsecond
	// ackEvery is the delayed-ACK coalescing factor.
	ackEvery = 2
	// ackTimeout bounds how long a delayed ACK may be withheld.
	ackTimeout = 500 * eventq.Microsecond
)

// Config carries the settings an experiment varies.
type Config struct {
	Variant Variant
	// DelayedAck enables the DCTCP paper's delayed-ACK ECN-echo state
	// machine: the receiver coalesces up to ackEvery segments per ACK
	// (flushing early after ackTimeout, on flow completion, or whenever
	// the CE state of arriving segments changes, so the echo stream
	// remains an exact run-length encoding of the mark stream).
	DelayedAck bool
	// MinRTO clamps the retransmission timeout (paper: 10 ms). pFabric
	// never reads it: its RTO is the fixed pfabricRTO.
	MinRTO eventq.Time
	// DupAckThresh triggers fast retransmit; 0 disables it entirely, the
	// paper's setting when DIBS is on (§4: reordering tolerance).
	DupAckThresh int
	// TTL is stamped on every emitted packet (§5.5.3 varies it).
	TTL int
}

// DefaultConfig returns the paper's Table 1 settings for the given variant,
// with fast retransmit disabled (the DIBS configuration). Callers enable
// DupAckThresh explicitly for non-DIBS runs.
func DefaultConfig(v Variant) Config {
	return Config{
		Variant:      v,
		MinRTO:       10 * eventq.Millisecond,
		DupAckThresh: 0,
		TTL:          packet.DefaultTTL,
	}
}

func (c *Config) validate() {
	if c.MinRTO <= 0 {
		panic("transport: MinRTO must be positive")
	}
	if c.TTL <= 0 {
		panic("transport: TTL must be positive")
	}
}

// Sender is the sending endpoint of a flow.
type Sender struct {
	env  Env
	cfg  Config
	Flow packet.FlowID
	Src  packet.NodeID
	Dst  packet.NodeID
	// Total is the number of payload bytes to transfer.
	Total int64

	sndUna  int64 // lowest unacknowledged byte
	sndNxt  int64 // next byte to send
	maxSent int64 // highest byte ever sent (detects retransmissions)

	cwnd       float64 // congestion window, in packets
	ssthresh   float64
	dupacks    int
	inRecovery bool
	recover    int64 // NewReno recovery point

	srtt, rttvar eventq.Time
	hasRTT       bool
	rto          eventq.Time
	rtoTimer     eventq.Timer
	// rtoFn is the onRTO method value, bound once so re-arming the timer
	// does not allocate per call.
	rtoFn func()

	// DCTCP state.
	alpha       float64
	ackedBytes  int64
	markedBytes int64
	windowEnd   int64
	cwndReduced bool // at most one reduction per window

	// Fluid hand-off state (hybrid mode, DESIGN §9). A demotion request
	// quiesces the sender first: emission stops at sndStop, the in-flight
	// window drains through normal ack/RTO processing, and only when
	// sndUna reaches sndStop — a clean byte boundary with nothing on the
	// wire — does custody pass to the rate model. While fluid, emission
	// and ack processing are suppressed; FluidAcked advances the
	// cumulative-ack state instead.
	fluid     bool
	quiesce   bool
	sndStop   int64
	onDrained func(remaining int64)

	// Stability tracking for demotion: at each window rollover the
	// current cwnd and the goodput since the previous rollover are
	// compared to their previous values. Staying within the stability
	// band on either axis counts a stable window; loss recovery (RTO or
	// fast retransmit) resets the count. Two regimes make the two axes
	// necessary: at a marked bottleneck DCTCP's alpha-proportional cwnd
	// wiggle stays inside the band (cwnd-stable), while a flow serialized
	// by an unmarked NIC grows cwnd every RTT against an inflating queue
	// even though its delivery rate is pinned at line rate (rate-stable).
	stableWins int
	stabEnd    int64
	stabCwnd   float64
	stabRate   float64     // goodput over the previous rollover interval
	stabAck    int64       // cumulative ack at the previous rollover
	stabTime   eventq.Time // clock at the previous rollover
	stabLoss   bool        // loss recovery happened in the current window

	started bool
	done    bool
	// OnComplete fires once, when every byte has been cumulatively acked,
	// with the sender's Flow: one callback can serve every flow.
	OnComplete func(packet.FlowID)

	// Stats.
	Retransmits  int
	Timeouts     int
	FastRecovers int
}

// NewSender creates a sender for a flow of total bytes.
func NewSender(env Env, cfg Config, flow packet.FlowID, src, dst packet.NodeID, total int64) *Sender {
	return InitSender(new(Sender), env, cfg, flow, src, dst, total)
}

// InitSender prepares s — allocated by the caller, typically carved from a
// block of many — as NewSender's sender, and returns it.
func InitSender(s *Sender, env Env, cfg Config, flow packet.FlowID, src, dst packet.NodeID, total int64) *Sender {
	cfg.validate()
	if total <= 0 {
		panic("transport: flow size must be positive")
	}
	if env.Pool == nil {
		env.Pool = packet.NewPool()
	}
	*s = Sender{
		env:      env,
		cfg:      cfg,
		Flow:     flow,
		Src:      src,
		Dst:      dst,
		Total:    total,
		cwnd:     initCwnd,
		ssthresh: 1 << 30,
		rto:      cfg.initialRTO(),
		// DCTCP convention (and Linux default): start alpha at 1 so the
		// first congestion signal gets a conservative halving.
		alpha: 1,
	}
	s.rtoFn = s.onRTO
	return s
}

func (c *Config) initialRTO() eventq.Time {
	if c.Variant == PFabric {
		return pfabricRTO
	}
	return c.MinRTO
}

// Start begins transmission.
func (s *Sender) Start() {
	if s.started {
		return
	}
	s.started = true
	s.windowEnd = 0
	s.trySend()
}

// Done reports whether the transfer completed.
func (s *Sender) Done() bool { return s.done }

// Cwnd returns the current congestion window in packets (for tests and
// metrics).
func (s *Sender) Cwnd() float64 { return s.cwnd }

// Alpha returns the DCTCP congestion estimate.
func (s *Sender) Alpha() float64 { return s.alpha }

// RTO returns the current retransmission timeout.
func (s *Sender) RTO() eventq.Time { return s.rto }

// SRTT returns the smoothed RTT estimate (0 before the first sample).
func (s *Sender) SRTT() eventq.Time { return s.srtt }

func (s *Sender) inflight() int64 { return s.sndNxt - s.sndUna }

func (s *Sender) cwndBytes() int64 {
	return int64(s.cwnd * packet.DefaultMSS)
}

// trySend emits segments while the window allows. A quiescing sender
// stops at the hand-off boundary; a fluid sender emits nothing.
func (s *Sender) trySend() {
	if s.done || s.fluid {
		return
	}
	limit := s.Total
	if s.quiesce {
		limit = s.sndStop
	}
	for s.sndNxt < limit && s.inflight() < s.cwndBytes() {
		payload := limit - s.sndNxt
		if payload > packet.DefaultMSS {
			payload = packet.DefaultMSS
		}
		s.emitSegment(s.sndNxt, int(payload))
		s.sndNxt += payload
		if s.sndNxt > s.maxSent {
			s.maxSent = s.sndNxt
		}
	}
	if s.inflight() > 0 {
		s.armRTO(false)
	}
}

func (s *Sender) emitSegment(seq int64, payload int) {
	p := s.env.Pool.Get()
	p.Kind = packet.Data
	p.Flow = s.Flow
	p.Src = s.Src
	p.Dst = s.Dst
	p.Seq = seq
	p.PayloadBytes = payload
	p.TTL = s.cfg.TTL
	p.SentAt = int64(s.env.Sched.Now())
	p.Rexmit = seq < s.maxSent
	if s.cfg.Variant == PFabric {
		// pFabric priority: remaining flow size; lower = more urgent.
		p.Priority = s.Total - s.sndUna
	}
	if p.Rexmit {
		s.Retransmits++
	}
	s.env.Emit(p)
}

// armRTO schedules (or, when force is set, reschedules) the retransmission
// timer.
func (s *Sender) armRTO(force bool) {
	if s.rtoTimer.Pending() {
		if !force {
			return
		}
		s.rtoTimer.Cancel()
	}
	s.rtoTimer = s.env.Sched.After(s.rto, s.rtoFn)
}

func (s *Sender) cancelRTO() {
	s.rtoTimer.Cancel()
	s.rtoTimer = eventq.Timer{}
}

// onRTO handles a retransmission timeout: go-back-N from sndUna with an
// exponentially backed-off timer.
func (s *Sender) onRTO() {
	if s.done || s.fluid {
		return
	}
	s.Timeouts++
	s.stabLoss = true
	s.stableWins = 0
	s.ssthresh = maxf(s.cwnd/2, 2)
	s.cwnd = 1
	s.dupacks = 0
	s.inRecovery = false
	if s.cfg.Variant != PFabric {
		s.rto = minT(s.rto*2, maxRTO)
	}
	s.sndNxt = s.sndUna
	s.trySend()
	s.armRTO(true)
}

// OnAck processes a cumulative acknowledgment.
func (s *Sender) OnAck(p *packet.Packet) {
	if s.done || s.fluid || p.Kind != packet.Ack {
		return
	}
	ack := p.Seq
	switch {
	case ack > s.sndUna:
		newly := ack - s.sndUna
		s.sndUna = ack
		if s.sndNxt < s.sndUna {
			s.sndNxt = s.sndUna
		}
		s.dupacks = 0
		// RTT sampling from the echoed send timestamp, original
		// transmissions only (Karn's rule).
		if !p.Rexmit && s.cfg.Variant != PFabric {
			s.updateRTT(s.env.Sched.Now() - eventq.Time(p.SentAt))
		}
		if s.cfg.Variant == DCTCP {
			s.dctcpOnAck(ack, newly, p.ECNEcho)
		}
		if s.inRecovery {
			if ack >= s.recover {
				s.inRecovery = false
				s.cwnd = s.ssthresh
			} else {
				// NewReno partial ACK: retransmit the next hole.
				s.emitSegment(s.sndUna, s.segLenAt(s.sndUna))
			}
		} else {
			s.grow(newly)
		}
		s.trackStability(ack)
		if s.sndUna >= s.Total {
			s.complete()
			return
		}
		if s.quiesce && s.sndUna >= s.sndStop {
			s.finishHandoff()
			return
		}
		s.armRTO(true)
		s.trySend()

	case ack == s.sndUna && s.inflight() > 0:
		s.dupacks++
		if s.cfg.DupAckThresh > 0 && s.dupacks == s.cfg.DupAckThresh && !s.inRecovery {
			s.fastRetransmit()
		}
	}
}

// segLenAt returns the payload length of the segment starting at seq.
func (s *Sender) segLenAt(seq int64) int {
	n := s.Total - seq
	if n > packet.DefaultMSS {
		n = packet.DefaultMSS
	}
	return int(n)
}

func (s *Sender) fastRetransmit() {
	s.FastRecovers++
	s.stabLoss = true
	s.stableWins = 0
	s.ssthresh = maxf(s.cwnd/2, 2)
	s.cwnd = s.ssthresh + 3
	s.inRecovery = true
	s.recover = s.sndNxt
	s.emitSegment(s.sndUna, s.segLenAt(s.sndUna))
	s.armRTO(true)
}

// grow applies slow start / congestion avoidance for newly acked bytes.
func (s *Sender) grow(newly int64) {
	pkts := float64(newly) / packet.DefaultMSS
	if s.cwnd < s.ssthresh {
		s.cwnd += pkts
	} else {
		s.cwnd += pkts / s.cwnd
	}
	if s.cwnd > maxCwnd {
		s.cwnd = maxCwnd
	}
}

// dctcpOnAck implements the DCTCP control law: per-window marked-byte
// fraction drives alpha; one proportional window decrease per window.
func (s *Sender) dctcpOnAck(ack, newly int64, echo bool) {
	// The float64(...) conversions below round each product on its own,
	// so no platform fuses it into the neighbouring add or subtract.
	s.ackedBytes += newly
	if echo {
		s.markedBytes += newly
		if !s.cwndReduced {
			s.cwnd = maxf(1, s.cwnd*(1-float64(s.alpha/2)))
			s.ssthresh = s.cwnd
			s.cwndReduced = true
		}
	}
	if ack >= s.windowEnd {
		if s.ackedBytes > 0 {
			f := float64(s.markedBytes) / float64(s.ackedBytes)
			s.alpha = float64((1-dctcpGain)*s.alpha) + float64(dctcpGain*f)
		}
		s.ackedBytes, s.markedBytes = 0, 0
		s.windowEnd = s.sndNxt
		s.cwndReduced = false
	}
}

// updateRTT is RFC 6298 with the MinRTO clamp.
func (s *Sender) updateRTT(sample eventq.Time) {
	if sample <= 0 {
		return
	}
	if !s.hasRTT {
		s.srtt = sample
		s.rttvar = sample / 2
		s.hasRTT = true
	} else {
		d := s.srtt - sample
		if d < 0 {
			d = -d
		}
		s.rttvar = (3*s.rttvar + d) / 4
		s.srtt = (7*s.srtt + sample) / 8
	}
	s.rto = s.srtt + 4*s.rttvar
	if s.rto < s.cfg.MinRTO {
		s.rto = s.cfg.MinRTO
	}
	if s.rto > maxRTO {
		s.rto = maxRTO
	}
}

func (s *Sender) complete() {
	s.done = true
	s.cancelRTO()
	if s.OnComplete != nil {
		s.OnComplete(s.Flow)
	}
}

// stabilityBand is the relative cwnd (or goodput) movement tolerated
// between window rollovers while still counting the window as stable. Wide
// enough to absorb DCTCP's steady-state alpha wiggle, narrow enough that
// slow start (cwnd and rate doubling) and congestion collapse both read as
// unstable.
const stabilityBand = 0.25

// trackStability advances the stable-window counter at window rollovers.
// A window is stable when no loss recovery ran and either cwnd or the
// goodput since the previous rollover stayed inside the band (see the
// field block for why both axes are needed).
func (s *Sender) trackStability(ack int64) {
	if ack < s.stabEnd {
		return
	}
	now := s.env.Sched.Now()
	var rate float64
	if dt := now - s.stabTime; dt > 0 {
		rate = float64(ack-s.stabAck) / dt.Seconds()
	}
	cwndOK := s.stabCwnd > 0 && absf(s.cwnd-s.stabCwnd) <= stabilityBand*s.stabCwnd
	rateOK := s.stabRate > 0 && rate > 0 && absf(rate-s.stabRate) <= stabilityBand*s.stabRate
	if s.stabLoss {
		s.stableWins = 0
	} else if cwndOK || rateOK {
		s.stableWins++
	} else {
		s.stableWins = 0
	}
	s.stabLoss = false
	s.stabCwnd = s.cwnd
	s.stabRate = rate
	s.stabAck = ack
	s.stabTime = now
	s.stabEnd = s.sndNxt
}

// StableWindows reports how many consecutive window rollovers kept cwnd
// inside the stability band with no loss recovery — the hybrid layer's
// demotion signal.
func (s *Sender) StableWindows() int { return s.stableWins }

// Remaining returns the bytes not yet cumulatively acknowledged.
func (s *Sender) Remaining() int64 { return s.Total - s.sndUna }

// StartFluidHandoff begins demoting the flow to fluid custody: emission
// stops at the current sndNxt, the in-flight window drains through normal
// ack (and, on loss, RTO) processing, and when the pipe is empty —
// sndUna == sndNxt, a clean byte boundary — onDrained fires once with the
// remaining byte count for the caller to admit into the rate model. If the
// flow completes before draining, onDrained never fires. Returns false if
// the sender cannot hand off (done, not started, or already fluid).
func (s *Sender) StartFluidHandoff(onDrained func(remaining int64)) bool {
	if s.done || !s.started || s.fluid || s.quiesce {
		return false
	}
	s.quiesce = true
	s.sndStop = s.sndNxt
	s.onDrained = onDrained
	if s.sndUna >= s.sndStop {
		// Nothing in flight (an idle boundary); hand off immediately.
		s.finishHandoff()
	}
	return true
}

// finishHandoff completes the quiesce: custody moves to the rate model.
func (s *Sender) finishHandoff() {
	s.quiesce = false
	s.fluid = true
	s.cancelRTO()
	s.dupacks = 0
	s.inRecovery = false
	cb := s.onDrained
	s.onDrained = nil
	if cb != nil {
		cb(s.Total - s.sndUna)
	}
}

// StartFluid starts the flow directly under fluid custody, never emitting
// a packet (pure fluid mode). FluidAcked drives it to completion.
func (s *Sender) StartFluid() {
	if s.started {
		return
	}
	s.started = true
	s.fluid = true
}

// FluidAcked credits n fluid-delivered bytes to the cumulative-ack state.
func (s *Sender) FluidAcked(n int64) {
	if s.done || !s.fluid || n <= 0 {
		return
	}
	s.sndUna += n
	if s.sndUna > s.Total {
		s.sndUna = s.Total
	}
	s.sndNxt = s.sndUna
	if s.maxSent < s.sndUna {
		s.maxSent = s.sndUna
	}
	if s.sndUna >= s.Total {
		s.complete()
	}
}

// ResumeFromFluid promotes the flow back to packet fidelity: transmission
// restarts at the cumulative-ack point in slow start from the initial
// window, with ssthresh set to the cwnd retained from before demotion (the
// demoted flow's bandwidth-limited steady state, so slow start ends near
// its fair share). Restarting the window itself — TCP's after-idle rule —
// matters for fidelity: the flow has no ack clock at this instant, and
// releasing the whole retained window would inject a line-rate burst that
// the steadily-paced packet-mode flow never produces. Stability and DCTCP
// window accounting restart from here.
func (s *Sender) ResumeFromFluid() {
	if s.done || !s.fluid {
		return
	}
	s.fluid = false
	s.ssthresh = maxf(s.cwnd, 2)
	s.cwnd = initCwnd
	s.ackedBytes, s.markedBytes = 0, 0
	s.windowEnd = s.sndNxt
	s.cwndReduced = false
	s.stableWins = 0
	s.stabLoss = false
	s.stabCwnd = s.cwnd
	s.stabRate = 0
	s.stabAck = s.sndUna
	s.stabTime = s.env.Sched.Now()
	s.stabEnd = s.sndNxt
	s.trySend()
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Receiver is the receiving endpoint of a flow.
type Receiver struct {
	env  Env
	cfg  Config
	Flow packet.FlowID
	// Host is this receiver's node (the ACK source).
	Host  packet.NodeID
	Total int64

	rcvNxt int64
	ranges rangeSet
	done   bool
	// OnComplete fires once, when all Total bytes have arrived, with the
	// receiver's Flow: one callback can serve every flow.
	OnComplete func(packet.FlowID)

	// Delayed-ACK state (DCTCP ECN-echo state machine).
	pendingCnt int
	lastCE     bool
	lastSentAt int64
	lastRexmit bool
	ackTimer   eventq.Timer
	// flushFn is the flushAck method value, bound on the first timer arm
	// and reused by every later one; without delayed ACKs it stays nil.
	flushFn  func()
	peerSrc  packet.NodeID
	peerFlow packet.FlowID

	// AcksSent counts emitted ACKs (delayed acking roughly halves it).
	AcksSent int

	// Stats.
	PacketsReceived int
	DupBytes        int64
	FirstArrival    eventq.Time
	LastArrival     eventq.Time
	// FluidBytes counts bytes delivered by the fluid model rather than by
	// packets (conservation: RcvNxt-covered bytes = packet bytes + fluid
	// bytes for flows that never retransmit across the boundary).
	FluidBytes int64
}

// NewReceiver creates a receiver expecting total bytes on flow.
func NewReceiver(env Env, cfg Config, flow packet.FlowID, host packet.NodeID, total int64) *Receiver {
	return InitReceiver(new(Receiver), env, cfg, flow, host, total)
}

// InitReceiver prepares r — allocated by the caller, typically carved from
// a block of many — as NewReceiver's receiver, and returns it.
func InitReceiver(r *Receiver, env Env, cfg Config, flow packet.FlowID, host packet.NodeID, total int64) *Receiver {
	cfg.validate()
	if total <= 0 {
		panic("transport: flow size must be positive")
	}
	if env.Pool == nil {
		env.Pool = packet.NewPool()
	}
	*r = Receiver{env: env, cfg: cfg, Flow: flow, Host: host, Total: total}
	return r
}

// Done reports whether every byte has arrived.
func (r *Receiver) Done() bool { return r.done }

// RcvNxt returns the highest contiguous byte received.
func (r *Receiver) RcvNxt() int64 { return r.rcvNxt }

// OnData handles an arriving data segment and emits a cumulative ACK that
// echoes the segment's CE mark and send timestamp.
func (r *Receiver) OnData(p *packet.Packet) {
	if p.Kind != packet.Data {
		return
	}
	if r.PacketsReceived == 0 {
		r.FirstArrival = r.env.Sched.Now()
	}
	r.PacketsReceived++
	r.LastArrival = r.env.Sched.Now()

	// ECN-echo state machine (delayed ACKs): a change in the CE state of
	// arriving segments immediately flushes an ACK covering the previous
	// segments and echoing *their* state, so the sender can reconstruct
	// the exact marked-byte count. This must happen before the new
	// segment advances rcvNxt.
	if r.cfg.DelayedAck && r.pendingCnt > 0 && p.CE != r.lastCE {
		r.flushAck()
	}

	before := r.ranges.covered()
	r.ranges.add(p.Seq, p.End())
	if r.ranges.covered() == before {
		r.DupBytes += int64(p.PayloadBytes)
	}
	r.rcvNxt = r.ranges.contiguousFrom(r.rcvNxt)

	complete := !r.done && r.rcvNxt >= r.Total

	if !r.cfg.DelayedAck {
		r.emitAck(p.CE, p.SentAt, p.Rexmit, p.Src, p.Flow)
	} else {
		r.peerSrc, r.peerFlow = p.Src, p.Flow
		r.lastCE = p.CE
		r.lastSentAt = p.SentAt
		r.lastRexmit = p.Rexmit
		r.pendingCnt++
		if r.pendingCnt >= ackEvery || complete {
			r.flushAck()
		} else if !r.ackTimer.Pending() {
			if r.flushFn == nil {
				r.flushFn = r.flushAck
			}
			r.ackTimer = r.env.Sched.After(ackTimeout, r.flushFn)
		}
	}

	if complete {
		r.done = true
		if r.OnComplete != nil {
			r.OnComplete(r.Flow)
		}
	}
}

// FluidDeliver credits n contiguous fluid-delivered bytes starting at
// rcvNxt. The fluid hand-off only begins at a fully acknowledged byte
// boundary with nothing in flight, so the credit always extends the
// contiguous prefix; no ACK is emitted — the sender's cumulative state
// advances through Sender.FluidAcked in the same engine tick.
func (r *Receiver) FluidDeliver(n int64) {
	if r.done || n <= 0 {
		return
	}
	end := r.rcvNxt + n
	if end > r.Total {
		end = r.Total
	}
	if end <= r.rcvNxt {
		return
	}
	if r.FirstArrival == 0 && r.PacketsReceived == 0 {
		r.FirstArrival = r.env.Sched.Now()
	}
	r.LastArrival = r.env.Sched.Now()
	r.FluidBytes += end - r.rcvNxt
	r.ranges.add(r.rcvNxt, end)
	r.rcvNxt = r.ranges.contiguousFrom(r.rcvNxt)
	if !r.done && r.rcvNxt >= r.Total {
		r.done = true
		if r.OnComplete != nil {
			r.OnComplete(r.Flow)
		}
	}
}

// flushAck emits the pending delayed ACK, if any.
func (r *Receiver) flushAck() {
	if r.pendingCnt == 0 {
		return
	}
	r.ackTimer.Cancel()
	r.pendingCnt = 0
	r.emitAck(r.lastCE, r.lastSentAt, r.lastRexmit, r.peerSrc, r.peerFlow)
}

// emitAck sends a cumulative ACK for everything received so far.
func (r *Receiver) emitAck(echo bool, sentAt int64, rexmit bool, dst packet.NodeID, flow packet.FlowID) {
	p := r.env.Pool.Get()
	p.Kind = packet.Ack
	p.Flow = flow
	p.Src = r.Host
	p.Dst = dst
	p.Seq = r.rcvNxt
	p.TTL = r.cfg.TTL
	p.ECNEcho = echo
	p.SentAt = sentAt
	p.Rexmit = rexmit
	// ACKs carry top priority in pFabric so they are never starved;
	// Priority is already zero on a freshly borrowed packet.
	r.env.Emit(p)
	r.AcksSent++
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minT(a, b eventq.Time) eventq.Time {
	if a < b {
		return a
	}
	return b
}
