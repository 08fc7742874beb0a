package transport

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dibs/internal/eventq"
	"dibs/internal/packet"
	"dibs/internal/quicktest"
)

func delAckConfig() Config {
	cfg := DefaultConfig(DCTCP)
	cfg.DelayedAck = true
	return cfg
}

func TestDelayedAckHalvesAckCount(t *testing.T) {
	w := newWire(20 * eventq.Microsecond)
	s, r := w.connect(delAckConfig(), 100_000) // 69 segments
	s.Start()
	w.sched.Run()
	if !r.Done() || !s.Done() {
		t.Fatal("flow did not complete with delayed ACKs")
	}
	// 69 segments coalesced ~2:1 (window rollovers and the final flush
	// add a few extras).
	if r.AcksSent >= 55 {
		t.Fatalf("acks sent = %d for 69 segments; coalescing not working", r.AcksSent)
	}
	if r.AcksSent < 30 {
		t.Fatalf("acks sent = %d, suspiciously few", r.AcksSent)
	}
}

func TestDelayedAckFlushesOnTimeout(t *testing.T) {
	sched := eventq.NewScheduler()
	var acks []*packet.Packet
	cfg := delAckConfig()
	env := Env{Sched: sched, Emit: func(p *packet.Packet) { acks = append(acks, p) }}
	r := NewReceiver(env, cfg, 1, 9, 10*1460)
	// One lone segment: no second arrival, so the 500us timer must fire.
	r.OnData(&packet.Packet{Kind: packet.Data, Flow: 1, Seq: 0, PayloadBytes: 1460})
	if len(acks) != 0 {
		t.Fatal("ACK sent before coalescing window closed")
	}
	sched.RunUntil(eventq.Millisecond)
	if len(acks) != 1 {
		t.Fatalf("acks = %d after timeout, want 1", len(acks))
	}
	if acks[0].Seq != 1460 {
		t.Fatalf("ack seq = %d", acks[0].Seq)
	}
}

func TestDelayedAckFlushesOnCEChange(t *testing.T) {
	sched := eventq.NewScheduler()
	var acks []*packet.Packet
	cfg := delAckConfig()
	cfg.AckEvery = 100 // only CE changes and completion flush
	env := Env{Sched: sched, Emit: func(p *packet.Packet) { acks = append(acks, p) }}
	r := NewReceiver(env, cfg, 1, 9, 100*1460)
	mk := func(i int, ce bool) *packet.Packet {
		return &packet.Packet{Kind: packet.Data, Flow: 1, Seq: int64(i) * 1460, PayloadBytes: 1460, CE: ce}
	}
	// Three unmarked, then a marked segment: the CE transition must flush
	// an ACK echoing the *unmarked* state for the first three.
	r.OnData(mk(0, false))
	r.OnData(mk(1, false))
	if len(acks) != 1 { // AckEvery=100, but default flushes at 2? No: every=100
		// With AckEvery=100 nothing flushed yet; adjust expectation.
		_ = acks
	}
	acks = acks[:0]
	r.OnData(mk(2, false))
	r.OnData(mk(3, true)) // CE state change
	if len(acks) != 1 {
		t.Fatalf("CE change did not flush: %d acks", len(acks))
	}
	if acks[0].ECNEcho {
		t.Fatal("flush on CE change must echo the previous (unmarked) state")
	}
	if acks[0].Seq != 3*1460 {
		t.Fatalf("flush ack seq = %d, want %d", acks[0].Seq, 3*1460)
	}
	// And the reverse transition echoes the marked state.
	acks = acks[:0]
	r.OnData(mk(4, false))
	if len(acks) != 1 || !acks[0].ECNEcho {
		t.Fatalf("reverse CE change: %+v", acks)
	}
}

func TestDelayedAckFlushesOnCompletion(t *testing.T) {
	sched := eventq.NewScheduler()
	var acks []*packet.Packet
	env := Env{Sched: sched, Emit: func(p *packet.Packet) { acks = append(acks, p) }}
	r := NewReceiver(env, delAckConfig(), 1, 9, 3*1460)
	for i := 0; i < 3; i++ {
		r.OnData(&packet.Packet{Kind: packet.Data, Flow: 1, Seq: int64(i) * 1460, PayloadBytes: 1460})
	}
	if !r.Done() {
		t.Fatal("not done")
	}
	// Final ACK must go out immediately, not wait for the timer.
	if len(acks) == 0 || acks[len(acks)-1].Seq != 3*1460 {
		t.Fatalf("completion not acked promptly: %+v", acks)
	}
}

func TestDelayedAckDCTCPMarkingAccuracy(t *testing.T) {
	// With every data packet marked, alpha must still converge to ~1
	// through the delayed-ACK echo path.
	w := newWire(20 * eventq.Microsecond)
	s, r := w.connect(delAckConfig(), 500_000)
	w.markData = func(i int, p *packet.Packet) bool { return true }
	s.Start()
	w.sched.Run()
	if !r.Done() {
		t.Fatal("flow did not complete")
	}
	if s.Alpha() < 0.9 {
		t.Fatalf("alpha = %v under full marking with delayed acks", s.Alpha())
	}
}

// Property: delayed-ACK flows complete under random loss/marking patterns
// exactly like per-segment-ACK flows.
func TestQuickDelayedAckChaos(t *testing.T) {
	f := func(seed int64, sizeRaw uint32, lossPct, markPct uint8) bool {
		size := int64(sizeRaw%150_000) + 1
		cfg := delAckConfig()
		w := newWire(20 * eventq.Microsecond)
		s, r := w.connect(cfg, size)
		loss := int(lossPct % 30)
		mark := int(markPct % 80)
		rng := newSeededRand(seed)
		w.dropData = func(i int, p *packet.Packet) bool {
			return rng.Intn(100) < loss && !p.Rexmit
		}
		w.markData = func(i int, p *packet.Packet) bool { return rng.Intn(100) < mark }
		s.Start()
		w.sched.RunUntil(60 * eventq.Second)
		return s.Done() && r.Done() && r.RcvNxt() == size
	}
	if err := quick.Check(f, quicktest.Config(t, 60)); err != nil {
		t.Fatal(err)
	}
}

// newSeededRand is a tiny helper so property tests share deterministic
// randomness.
func newSeededRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
