package switching

import (
	"testing"
	"testing/quick"

	"dibs/internal/eventq"
	"dibs/internal/packet"
	"dibs/internal/queue"
	"dibs/internal/quicktest"
)

// Property: delivery jitter never reorders a link — arrivals are
// nondecreasing in time and preserve transmission order for any jitter
// magnitude and packet mix.
func TestQuickJitterPreservesFIFO(t *testing.T) {
	f := func(seed int64, jitterUs uint8, sizes []uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 64 {
			sizes = sizes[:64]
		}
		sched := eventq.NewScheduler()
		sink := &capture{sched: sched}
		op := NewOutPort(sched, queue.NewInfinite(0), 1_000_000_000, 1500, sink, 0)
		op.SetJitter(uint64(seed), eventq.Time(jitterUs)*eventq.Microsecond+1)
		for i, sz := range sizes {
			op.Enqueue(&packet.Packet{
				Kind:         packet.Data,
				Flow:         packet.FlowID(i),
				PayloadBytes: int(sz%1460) + 1,
			})
		}
		sched.Run()
		if len(sink.pkts) != len(sizes) {
			return false
		}
		for i := 1; i < len(sink.pkts); i++ {
			if sink.pkts[i].Flow != packet.FlowID(i) {
				return false // order broken
			}
			if sink.times[i] < sink.times[i-1] {
				return false // time went backwards
			}
		}
		return true
	}
	if err := quick.Check(f, quicktest.Config(t, 150)); err != nil {
		t.Fatal(err)
	}
}

func TestBusyTimeAccounting(t *testing.T) {
	sched := eventq.NewScheduler()
	op := NewOutPort(sched, queue.NewInfinite(0), 1_000_000_000, 0, &capture{sched: sched}, 0)
	// 5 full packets: 5 x 12us of serialization.
	for i := 0; i < 5; i++ {
		op.Enqueue(&packet.Packet{Kind: packet.Data, PayloadBytes: 1460})
	}
	sched.Run()
	if op.BusyTime() != 60*eventq.Microsecond {
		t.Fatalf("BusyTime = %v, want 60us", op.BusyTime())
	}
	if op.TxPackets != 5 || op.TxBytes != 5*1500 {
		t.Fatalf("tx counters: %d pkts, %d bytes", op.TxPackets, op.TxBytes)
	}
}

func TestSetPeerRewires(t *testing.T) {
	sched := eventq.NewScheduler()
	a := &capture{sched: sched}
	b := &capture{sched: sched}
	op := NewOutPort(sched, queue.NewDropTail(4, 0), 1_000_000_000, 0, a, 0)
	op.Enqueue(&packet.Packet{Kind: packet.Data, PayloadBytes: 10})
	sched.Run()
	op.SetPeer(b, 3)
	op.Enqueue(&packet.Packet{Kind: packet.Data, PayloadBytes: 10})
	sched.Run()
	if len(a.pkts) != 1 || len(b.pkts) != 1 {
		t.Fatalf("deliveries a=%d b=%d", len(a.pkts), len(b.pkts))
	}
}
