package switching

import "dibs/internal/packet"

// Ethernet flow control (IEEE 802.3x PAUSE / 802.1Qbb PFC with a single
// traffic class), the alternative lossless mechanism the paper compares
// DIBS against in §6. When the packets buffered in a switch that entered
// via input port i exceed the XOFF threshold, the switch pauses the
// upstream transmitter on that link; when they drain below XON it resumes
// it. The pause cascades hop by hop toward the senders — implicit buffer
// sharing with the *upstream* switches only, whereas DIBS can claim any
// neighbor's buffer.
//
// The implementation uses per-ingress accounting (packet.Ingress scratch),
// a dequeue hook on every output port, and a pause function wired by the
// network builder that flips the upstream OutPort after one link delay.

// PFCConfig enables Ethernet flow control on a switch.
type PFCConfig struct {
	// Xoff pauses the upstream link when this many packets from one
	// ingress are buffered; Xon resumes below it. 0 < Xon < Xoff.
	Xoff, Xon int
	// Pause is invoked to pause/resume the upstream transmitter of input
	// port inPort. The builder wires it (with link-delay latency).
	Pause func(inPort int, paused bool)
}

// pfcState is the per-switch flow-control state.
type pfcState struct {
	cfg        PFCConfig
	ingress    []int  // buffered packets per input port
	pausedUp   []bool // whether we have paused each upstream
	PausesSent uint64
}

// EnablePFC activates Ethernet flow control on the switch. Must be called
// before any traffic; incompatible with DIBS (they are alternative
// mechanisms) and the builder enforces that.
func (s *Switch) EnablePFC(cfg PFCConfig) {
	if cfg.Xoff <= 0 || cfg.Xon <= 0 || cfg.Xon >= cfg.Xoff {
		panic("switching: PFC requires 0 < Xon < Xoff")
	}
	if cfg.Pause == nil {
		panic("switching: PFC requires a Pause function")
	}
	if s.policy != nil {
		panic("switching: PFC and DIBS are mutually exclusive")
	}
	if s.cioq != nil {
		panic("switching: PFC is implemented for output-queued switches only")
	}
	s.pfc = &pfcState{
		cfg:      cfg,
		ingress:  make([]int, len(s.ports)),
		pausedUp: make([]bool, len(s.ports)),
	}
	for _, op := range s.ports {
		op.OnEnqueue = func(p *packet.Packet) { s.pfcOnEnqueue(p.Ingress) }
		op.OnDequeue = s.pfcOnDequeue
	}
}

// PFCPausesSent reports how many PAUSE frames this switch has emitted.
func (s *Switch) PFCPausesSent() uint64 {
	if s.pfc == nil {
		return 0
	}
	return s.pfc.PausesSent
}

// pfcOnEnqueue accounts an accepted packet against its ingress port and
// pauses the upstream when crossing XOFF.
func (s *Switch) pfcOnEnqueue(inPort int) {
	st := s.pfc
	st.ingress[inPort]++
	if !st.pausedUp[inPort] && st.ingress[inPort] >= st.cfg.Xoff {
		st.pausedUp[inPort] = true
		st.PausesSent++
		st.cfg.Pause(inPort, true)
	}
}

// pfcOnDequeue releases the buffer slot and resumes the upstream when
// draining below XON.
func (s *Switch) pfcOnDequeue(p *packet.Packet) {
	st := s.pfc
	in := p.Ingress
	if in < 0 || in >= len(st.ingress) {
		return
	}
	st.ingress[in]--
	if st.pausedUp[in] && st.ingress[in] < st.cfg.Xon {
		st.pausedUp[in] = false
		st.cfg.Pause(in, false)
	}
}
