package switching

import (
	"math/rand"
	"testing"

	"dibs/internal/eventq"
	"dibs/internal/packet"
	"dibs/internal/queue"
	"dibs/internal/rng"
)

// TestOutPortMatchesStoreAndForward holds one port to the closed form of a
// store-and-forward FIFO link. Packet i arrives at arrive_i, starts at
//
//	start_i = max(arrive_i, end_{i-1}), moved to the end of a pause window it falls in,
//
// ends at end_i = start_i + ser_i and reaches the far end at
//
//	deliver_i = max(end_i + delay + j_i, deliver_{i-1}),
//
// where j_i is the port's i-th jitter draw. Probes at random instants read
// QueueLen and BusyTime against the backlog and the busy time the closed
// form gives there. Arrivals, pause edges and probes sit on distinct
// residues of a 16 ns grid (serialization times are multiples of 16 ns),
// so none of them share an instant and no probe meets a start. An arrival
// or pause edge that meets a serialization end was scheduled before that
// packet started, so it runs first — which is what max() and the half-open
// pause windows assume.
func TestOutPortMatchesStoreAndForward(t *testing.T) {
	const grid = 16 * eventq.Nanosecond
	for trial := int64(0); trial < 40; trial++ {
		for _, jitterMax := range []eventq.Time{0, 3 * eventq.Microsecond} {
			r := rand.New(rand.NewSource(trial))
			sched := eventq.NewScheduler()
			sink := &capture{sched: sched}
			delay := []eventq.Time{0, 1500, eventq.Time(r.Intn(5000))}[r.Intn(3)]
			// 1 Gbps: a byte serializes in 8 ns, an even size in a multiple of 16.
			op := NewOutPort(sched, queue.NewInfinite(0), 1_000_000_000, delay, sink, 0)
			jitterSeed := r.Uint64()
			if jitterMax > 0 {
				op.SetJitter(jitterSeed, jitterMax)
			}

			// Pause windows [from, to), edges at 8 mod 16, at least one grid
			// step apart.
			type window struct{ from, to eventq.Time }
			var windows []window
			at := eventq.Time(0)
			for w := r.Intn(5); w > 0; w-- {
				from := at + grid*eventq.Time(1+r.Intn(400)) + grid/2
				to := from + grid*eventq.Time(1+r.Intn(200))
				windows = append(windows, window{from, to})
				sched.At(from, func() { op.SetPaused(true) })
				sched.At(to, func() { op.SetPaused(false) })
				at = to + grid/2
			}
			unpaused := func(t eventq.Time) eventq.Time {
				for _, w := range windows {
					if t >= w.from && t < w.to {
						t = w.to
					}
				}
				return t
			}

			// Arrivals on the grid, bursty enough to queue.
			const n = 150
			arrive := make([]eventq.Time, n)
			size := make([]int, n)
			at = 0
			for i := range arrive {
				if r.Intn(3) > 0 {
					at += grid * eventq.Time(r.Intn(120))
				}
				arrive[i] = at
				payload := 2 * (1 + r.Intn(packet.DefaultMSS/2))
				size[i] = payload + packet.HeaderBytes
				p := &packet.Packet{Kind: packet.Data, Flow: packet.FlowID(i), PayloadBytes: payload}
				sched.At(at, func() { op.Enqueue(p) })
			}

			// The closed form.
			start := make([]eventq.Time, n)
			deliver := make([]eventq.Time, n)
			ser := func(i int) eventq.Time { return eventq.Time(size[i] * 8) }
			js := rng.Stream(jitterSeed)
			var end, last eventq.Time
			for i := range arrive {
				start[i] = unpaused(max(arrive[i], end))
				end = start[i] + ser(i)
				d := end + delay
				if jitterMax > 0 {
					d += eventq.Time(js.Int63n(int64(jitterMax)))
				}
				deliver[i] = max(d, last)
				last = deliver[i]
			}

			type probe struct {
				at       eventq.Time
				qlen     int
				busyTime eventq.Time
			}
			probes := make([]probe, 60)
			for k := range probes {
				pr := &probes[k]
				pr.at = grid*eventq.Time(r.Int63n(int64(end/grid)+100)) + 3
				sched.At(pr.at, func() { pr.qlen, pr.busyTime = op.QueueLen(), op.BusyTime() })
			}

			sched.Run()

			if len(sink.times) != n {
				t.Fatalf("trial %d jitter %v: %d of %d packets delivered", trial, jitterMax, len(sink.times), n)
			}
			for i, got := range sink.times {
				if sink.pkts[i].Flow != packet.FlowID(i) {
					t.Fatalf("trial %d jitter %v: delivery %d carried packet %d", trial, jitterMax, i, sink.pkts[i].Flow)
				}
				if got != deliver[i] {
					t.Fatalf("trial %d jitter %v: packet %d (arrive %v, start %v) delivered at %v, closed form %v",
						trial, jitterMax, i, arrive[i], start[i], got, deliver[i])
				}
			}
			for _, pr := range probes {
				var qlen int
				var busy eventq.Time
				for i := range arrive {
					if start[i] < pr.at {
						busy += ser(i)
					} else if arrive[i] < pr.at {
						qlen++
					}
				}
				if pr.qlen != qlen || pr.busyTime != busy {
					t.Fatalf("trial %d jitter %v: at %v QueueLen %d BusyTime %v, closed form %d and %v",
						trial, jitterMax, pr.at, pr.qlen, pr.busyTime, qlen, busy)
				}
			}
		}
	}
}

// recvFunc adapts a function to Handler.
type recvFunc func(p *packet.Packet, port int)

func (f recvFunc) Receive(p *packet.Packet, port int) { f(p, port) }

// TestOutPortSameInstantOrder pins how events at the very instant a
// serialization ends see the port: as if the completion were an ordinary
// event scheduled when the packet started. One scheduled before packet 1
// starts runs first and finds the transmitter busy, so the packet it
// offers waits in the queue; one scheduled after runs second and finds
// the transmitter already moved on. Two more readers sit exactly on the
// completion's own key: the timer of a clocked port (OnDequeue set), which
// must start the waiting packet at that instant, and the delivery of a
// zero-delay link, which must find it started.
func TestOutPortSameInstantOrder(t *testing.T) {
	const end = 12 * eventq.Microsecond // one 1500-byte packet at 1 Gbps
	for _, tc := range []struct {
		name    string
		delay   eventq.Time
		clocked bool
	}{
		{"zero-delay link", 0, false},
		{"clocked port", 1500, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sched := eventq.NewScheduler()
			var op *OutPort
			atDelivery := -1
			peer := recvFunc(func(p *packet.Packet, _ int) {
				if p.Flow == 1 {
					atDelivery = op.QueueLen()
				}
			})
			op = NewOutPort(sched, queue.NewInfinite(0), 1_000_000_000, tc.delay, peer, 0)
			var dequeued []eventq.Time
			if tc.clocked {
				op.OnDequeue = func(*packet.Packet) { dequeued = append(dequeued, sched.Now()) }
			}
			before, after := -1, -1
			sched.At(end, func() {
				op.Enqueue(dataPkt(2, 0, 64))
				before = op.QueueLen()
			})
			sched.At(0, func() {
				op.Enqueue(dataPkt(1, 0, 64))
				sched.At(end, func() { after = op.QueueLen() })
			})
			sched.Run()

			if before != 1 {
				t.Errorf("event scheduled before the start: QueueLen %d, want 1 (transmitter busy)", before)
			}
			if after != 0 {
				t.Errorf("event scheduled after the start: QueueLen %d, want 0 (transmitter moved on)", after)
			}
			if tc.delay == 0 && atDelivery != 0 {
				t.Errorf("zero-delay delivery at the serialization end: QueueLen %d, want 0", atDelivery)
			}
			if tc.clocked && (len(dequeued) != 2 || dequeued[1] != end) {
				t.Errorf("clocked port dequeued at %v, want [0 %v]", dequeued, end)
			}
			if op.TxPackets != 2 {
				t.Errorf("TxPackets %d, want 2", op.TxPackets)
			}
		})
	}
}
