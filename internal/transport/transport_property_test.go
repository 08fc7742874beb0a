package transport

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dibs/internal/eventq"
	"dibs/internal/packet"
	"dibs/internal/quicktest"
)

// Property: a flow completes correctly under ANY pattern of random data
// loss, marking, and reordering, for every transport variant — the
// transport never deadlocks or miscounts bytes.
func TestQuickTransferSurvivesChaos(t *testing.T) {
	variants := []Variant{DCTCP, NewReno, PFabric}
	f := func(seed int64, sizeRaw uint32, lossPct, markPct, delayPct uint8, variantRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		size := int64(sizeRaw%200_000) + 1
		loss := int(lossPct % 40) // up to 40% loss
		mark := int(markPct % 90) // up to 90% marking
		delay := int(delayPct % 50)
		cfg := DefaultConfig(variants[int(variantRaw)%len(variants)])
		if rng.Intn(2) == 0 {
			cfg.DupAckThresh = 3
		}
		w := newWire(20 * eventq.Microsecond)
		s, r := w.connect(cfg, size)
		w.dropData = func(i int, p *packet.Packet) bool {
			// Never drop retransmissions of the same segment forever:
			// cap per-packet losses by making rexmits immune at random.
			return rng.Intn(100) < loss && !p.Rexmit
		}
		w.markData = func(i int, p *packet.Packet) bool { return rng.Intn(100) < mark }
		w.extraDelay = func(i int, p *packet.Packet) eventq.Time {
			if rng.Intn(100) < delay {
				return eventq.Time(rng.Intn(500)) * eventq.Microsecond
			}
			return 0
		}
		s.Start()
		// Bound the run: plenty of time for RTO recovery of every loss.
		w.sched.RunUntil(60 * eventq.Second)
		return s.Done() && r.Done() && r.RcvNxt() == size
	}
	if err := quick.Check(f, quicktest.Config(t, 60)); err != nil {
		t.Fatal(err)
	}
}

// Property: cwnd always stays within [1, MaxCwnd] and sndUna never exceeds
// sndNxt, across random loss patterns.
func TestQuickSenderInvariants(t *testing.T) {
	f := func(seed int64, lossPct uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig(DCTCP)
		cfg.MaxCwnd = 64
		w := newWire(20 * eventq.Microsecond)
		s, _ := w.connect(cfg, 300_000)
		loss := int(lossPct % 30)
		w.dropData = func(i int, p *packet.Packet) bool {
			return rng.Intn(100) < loss && !p.Rexmit
		}
		ok := true
		check := func() {
			if s.cwnd < 1 || s.cwnd > cfg.MaxCwnd+1 {
				ok = false
			}
			if s.sndUna > s.sndNxt || s.sndUna > s.Total {
				ok = false
			}
			if s.alpha < 0 || s.alpha > 1 {
				ok = false
			}
		}
		var poll func()
		poll = func() {
			check()
			if !s.Done() {
				w.sched.After(100*eventq.Microsecond, poll)
			}
		}
		poll()
		s.Start()
		w.sched.RunUntil(30 * eventq.Second)
		check()
		return ok && s.Done()
	}
	if err := quick.Check(f, quicktest.Config(t, 40)); err != nil {
		t.Fatal(err)
	}
}

// Property: the receiver acknowledges exactly monotonically and never
// beyond the bytes it has seen.
func TestQuickReceiverAckMonotone(t *testing.T) {
	f := func(seed int64, nSegs uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nSegs%40) + 1
		cfg := DefaultConfig(DCTCP)
		sched := eventq.NewScheduler()
		var lastAck int64 = -1
		ok := true
		env := Env{Sched: sched, Emit: func(p *packet.Packet) {
			if p.Kind != packet.Ack {
				return
			}
			if p.Seq < lastAck {
				ok = false // cumulative ACK went backwards
			}
			lastAck = p.Seq
		}}
		const mss = 1460
		rcv := NewReceiver(env, cfg, 1, 9, int64(n)*mss)
		segs := rng.Perm(n)
		seen := int64(0)
		for _, sIdx := range segs {
			rcv.OnData(&packet.Packet{
				Kind: packet.Data, Flow: 1, Seq: int64(sIdx) * mss, PayloadBytes: mss,
			})
			seen += mss
			if lastAck > seen {
				ok = false // acked more than delivered
			}
		}
		return ok && rcv.Done() && rcv.RcvNxt() == int64(n)*mss
	}
	if err := quick.Check(f, quicktest.Config(t, 200)); err != nil {
		t.Fatal(err)
	}
}
