package queue

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dibs/internal/packet"
	"dibs/internal/quicktest"
)

func mkpkt(seq int64) *packet.Packet {
	return &packet.Packet{Kind: packet.Data, Seq: seq, PayloadBytes: 1000}
}

func TestDropTailFIFO(t *testing.T) {
	q := NewDropTail(3, 0)
	for i := int64(0); i < 3; i++ {
		if r := q.Enqueue(mkpkt(i)); !r.Accepted || r.Marked {
			t.Fatalf("enqueue %d: %+v", i, r)
		}
	}
	if r := q.Enqueue(mkpkt(3)); r.Accepted {
		t.Fatal("4th enqueue should be refused")
	}
	if !q.Full() {
		t.Fatal("queue should be full")
	}
	for i := int64(0); i < 3; i++ {
		p := q.Dequeue()
		if p == nil || p.Seq != i {
			t.Fatalf("dequeue %d: %v", i, p)
		}
	}
	if q.Dequeue() != nil {
		t.Fatal("dequeue from empty should be nil")
	}
	if q.Len() != 0 || q.Bytes() != 0 {
		t.Fatalf("empty queue: len=%d bytes=%d", q.Len(), q.Bytes())
	}
}

func TestDropTailMarking(t *testing.T) {
	q := NewDropTail(10, 3)
	for i := int64(0); i < 3; i++ {
		if r := q.Enqueue(mkpkt(i)); r.Marked {
			t.Fatalf("packet %d marked below threshold", i)
		}
	}
	p := mkpkt(3)
	r := q.Enqueue(p)
	if !r.Marked || !p.CE {
		t.Fatal("packet at threshold should be CE-marked")
	}
}

func TestDropTailBytes(t *testing.T) {
	q := NewDropTail(10, 0)
	p := mkpkt(0)
	q.Enqueue(p)
	if q.Bytes() != p.Size() {
		t.Fatalf("bytes = %d, want %d", q.Bytes(), p.Size())
	}
	q.Dequeue()
	if q.Bytes() != 0 {
		t.Fatal("bytes should return to zero")
	}
}

func TestDropTailRingGrowth(t *testing.T) {
	// Interleave pushes and pops to exercise ring wraparound and growth.
	q := NewInfinite(0)
	next, expect := int64(0), int64(0)
	for round := 0; round < 100; round++ {
		for i := 0; i < 5; i++ {
			q.Enqueue(mkpkt(next))
			next++
		}
		for i := 0; i < 3; i++ {
			p := q.Dequeue()
			if p.Seq != expect {
				t.Fatalf("out of order: got %d want %d", p.Seq, expect)
			}
			expect++
		}
	}
	for q.Len() > 0 {
		p := q.Dequeue()
		if p.Seq != expect {
			t.Fatalf("drain out of order: got %d want %d", p.Seq, expect)
		}
		expect++
	}
	if expect != next {
		t.Fatalf("drained %d, pushed %d", expect, next)
	}
}

func TestInfinite(t *testing.T) {
	q := NewInfinite(0)
	for i := int64(0); i < 10000; i++ {
		if r := q.Enqueue(mkpkt(i)); !r.Accepted {
			t.Fatal("infinite queue refused a packet")
		}
	}
	if q.Full() {
		t.Fatal("infinite queue reports full")
	}
	if q.Len() != 10000 {
		t.Fatalf("len = %d", q.Len())
	}
	if q.Dequeue().Seq != 0 {
		t.Fatal("not FIFO")
	}
}

func TestInfiniteMarking(t *testing.T) {
	q := NewInfinite(2)
	q.Enqueue(mkpkt(0))
	q.Enqueue(mkpkt(1))
	if r := q.Enqueue(mkpkt(2)); !r.Marked {
		t.Fatal("infinite queue should still ECN-mark")
	}
}

func TestSharedPoolDBA(t *testing.T) {
	pool := NewSharedPool(100, 1.0, 2)
	a := NewSharedQueue(pool, 0)
	b := NewSharedQueue(pool, 0)
	// Queue a alone may grow to alpha*free: starts at 100 free, threshold
	// shrinks as it fills. With alpha=1 it can take about half the pool
	// before threshold == len.
	n := 0
	for !a.Full() {
		a.Enqueue(mkpkt(int64(n)))
		n++
	}
	if n < 45 || n > 55 {
		t.Fatalf("single queue with alpha=1 took %d of 100; want ~50", n)
	}
	// Second queue still gets space.
	m := 0
	for !b.Full() {
		b.Enqueue(mkpkt(int64(m)))
		m++
	}
	if m == 0 {
		t.Fatal("second queue starved")
	}
	if pool.Used() != n+m {
		t.Fatalf("pool used = %d, want %d", pool.Used(), n+m)
	}
	// Draining a frees pool space and unb locks b.
	for a.Len() > 0 {
		a.Dequeue()
	}
	if b.Full() {
		t.Fatal("b should be admitted again after a drains")
	}
	if pool.Used() != m {
		t.Fatalf("pool used = %d after drain, want %d", pool.Used(), m)
	}
}

func TestSharedPoolReserve(t *testing.T) {
	pool := NewSharedPool(10, 0.001, 3)
	q := NewSharedQueue(pool, 0)
	// Alpha is tiny, so the threshold floor (reserve=3) governs.
	got := 0
	for !q.Full() {
		q.Enqueue(mkpkt(int64(got)))
		got++
	}
	if got != 3 {
		t.Fatalf("reserve admission = %d, want 3", got)
	}
}

func TestSharedPoolExhaustion(t *testing.T) {
	pool := NewSharedPool(5, 100, 100)
	q := NewSharedQueue(pool, 0)
	for i := 0; i < 5; i++ {
		if r := q.Enqueue(mkpkt(int64(i))); !r.Accepted {
			t.Fatalf("enqueue %d refused with free pool", i)
		}
	}
	if r := q.Enqueue(mkpkt(99)); r.Accepted {
		t.Fatal("pool exhausted but enqueue accepted")
	}
	if pool.Free() != 0 {
		t.Fatalf("free = %d", pool.Free())
	}
}

func TestSharedQueueMarking(t *testing.T) {
	pool := NewSharedPool(100, 1, 1)
	q := NewSharedQueue(pool, 2)
	q.Enqueue(mkpkt(0))
	q.Enqueue(mkpkt(1))
	if r := q.Enqueue(mkpkt(2)); !r.Marked {
		t.Fatal("shared queue should ECN-mark at threshold")
	}
}

func prio(p int64, seq int64) *packet.Packet {
	return &packet.Packet{Kind: packet.Data, Seq: seq, PayloadBytes: 1000, Priority: p}
}

func TestPFabricPriorityDequeue(t *testing.T) {
	q := NewPFabric(24)
	q.Enqueue(prio(300, 0))
	q.Enqueue(prio(100, 1))
	q.Enqueue(prio(200, 2))
	if p := q.Dequeue(); p.Priority != 100 {
		t.Fatalf("dequeued priority %d, want 100", p.Priority)
	}
	if p := q.Dequeue(); p.Priority != 200 {
		t.Fatalf("dequeued priority %d, want 200", p.Priority)
	}
}

func TestPFabricFIFOAmongEqual(t *testing.T) {
	q := NewPFabric(24)
	for i := int64(0); i < 5; i++ {
		q.Enqueue(prio(100, i))
	}
	for i := int64(0); i < 5; i++ {
		if p := q.Dequeue(); p.Seq != i {
			t.Fatalf("equal-priority order broken: got seq %d want %d", p.Seq, i)
		}
	}
}

func TestPFabricEviction(t *testing.T) {
	q := NewPFabric(2)
	q.Enqueue(prio(100, 0))
	q.Enqueue(prio(500, 1))
	// Higher-priority (lower value) arrival evicts the worst.
	r := q.Enqueue(prio(50, 2))
	if !r.Accepted || r.Evicted == nil || r.Evicted.Priority != 500 {
		t.Fatalf("eviction result: %+v", r)
	}
	// Lower-priority arrival is refused.
	r = q.Enqueue(prio(900, 3))
	if r.Accepted {
		t.Fatal("low-priority arrival should be dropped")
	}
	if q.Len() != 2 {
		t.Fatalf("len = %d", q.Len())
	}
}

func TestPFabricEvictionTieKeepsEarlier(t *testing.T) {
	q := NewPFabric(2)
	q.Enqueue(prio(100, 0))
	q.Enqueue(prio(100, 1))
	r := q.Enqueue(prio(50, 2))
	if r.Evicted == nil || r.Evicted.Seq != 1 {
		t.Fatalf("tie eviction should drop the later arrival, got %+v", r.Evicted)
	}
}

func TestPFabricBytes(t *testing.T) {
	q := NewPFabric(4)
	p := prio(1, 0)
	q.Enqueue(p)
	if q.Bytes() != p.Size() {
		t.Fatalf("bytes = %d", q.Bytes())
	}
	q.Dequeue()
	if q.Bytes() != 0 {
		t.Fatal("bytes after drain")
	}
}

func TestConstructorPanics(t *testing.T) {
	for i, fn := range []func(){
		func() { NewDropTail(0, 0) },
		func() { NewPFabric(0) },
		func() { NewSharedPool(0, 1, 1) },
		func() { NewSharedPool(10, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

// Property: DropTail never exceeds capacity, conserves packets, and
// preserves FIFO order under random operation sequences.
func TestQuickDropTailInvariants(t *testing.T) {
	f := func(seed int64, capRaw uint8) bool {
		capacity := int(capRaw%50) + 1
		rng := rand.New(rand.NewSource(seed))
		q := NewDropTail(capacity, 0)
		var inQ []int64
		next := int64(0)
		accepted, drained := 0, 0
		for op := 0; op < 500; op++ {
			if rng.Intn(2) == 0 {
				r := q.Enqueue(mkpkt(next))
				if r.Accepted {
					inQ = append(inQ, next)
					accepted++
				} else if len(inQ) != capacity {
					return false // refused while not full
				}
				next++
			} else {
				p := q.Dequeue()
				if len(inQ) == 0 {
					if p != nil {
						return false
					}
					continue
				}
				if p == nil || p.Seq != inQ[0] {
					return false
				}
				inQ = inQ[1:]
				drained++
			}
			if q.Len() != len(inQ) || q.Len() > capacity {
				return false
			}
		}
		return accepted-drained == q.Len()
	}
	if err := quick.Check(f, quicktest.Config(t, 50)); err != nil {
		t.Fatal(err)
	}
}

// Property: the shared pool's used count always equals the sum of queue
// lengths, and no queue grows past the pool total.
func TestQuickSharedPoolConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pool := NewSharedPool(64, 1.0, 2)
		qs := make([]*SharedQueue, 4)
		for i := range qs {
			qs[i] = NewSharedQueue(pool, 0)
		}
		for op := 0; op < 1000; op++ {
			qi := rng.Intn(len(qs))
			if rng.Intn(2) == 0 {
				qs[qi].Enqueue(mkpkt(int64(op)))
			} else {
				qs[qi].Dequeue()
			}
			sum := 0
			for _, q := range qs {
				sum += q.Len()
			}
			if sum != pool.Used() || pool.Used() > pool.Total() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quicktest.Config(t, 50)); err != nil {
		t.Fatal(err)
	}
}

// Property: pFabric dequeues in nondecreasing priority when no enqueues
// interleave, and never exceeds capacity.
func TestQuickPFabricOrder(t *testing.T) {
	f := func(prios []int16) bool {
		q := NewPFabric(24)
		for i, p := range prios {
			q.Enqueue(prio(int64(p), int64(i)))
			if q.Len() > 24 {
				return false
			}
		}
		last := int64(-1 << 62)
		for q.Len() > 0 {
			p := q.Dequeue()
			if p.Priority < last {
				return false
			}
			last = p.Priority
		}
		return true
	}
	if err := quick.Check(f, quicktest.Config(t, 200)); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDropTailEnqDeq(b *testing.B) {
	q := NewDropTail(100, 20)
	p := mkpkt(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Enqueue(p)
		q.Dequeue()
	}
}

func BenchmarkPFabricEnqDeq(b *testing.B) {
	q := NewPFabric(24)
	// Keep the queue half full so scans have work to do.
	for i := int64(0); i < 12; i++ {
		q.Enqueue(prio(i*100, i))
	}
	p := prio(50, 99)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Enqueue(p)
		q.Dequeue()
	}
}
