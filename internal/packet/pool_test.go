package packet

import (
	"strings"
	"testing"
)

func TestPoolBorrowReturnRecycles(t *testing.T) {
	pl := NewPool()
	p := pl.Get()
	if p == nil || p.pool != pl {
		t.Fatal("Get returned packet without pool backpointer")
	}
	p.Kind = Ack
	p.Seq = 99
	pl.Put(p)
	q := pl.Get()
	if q != p {
		t.Fatal("freelist did not recycle the returned node")
	}
	if q.Kind != Data || q.Seq != 0 || q.Pooled() {
		t.Fatalf("recycled packet not zeroed: %+v", q)
	}
	if pl.Borrowed() != 2 || pl.Returned() != 1 || pl.Live() != 1 {
		t.Fatalf("counters: borrowed=%d returned=%d live=%d", pl.Borrowed(), pl.Returned(), pl.Live())
	}
}

func TestPoolGenerationDetectsRecycle(t *testing.T) {
	pl := NewPool()
	p := pl.Get()
	gen := p.Gen()
	pl.Put(p)
	if p.Gen() != gen+1 {
		t.Fatalf("Put did not bump gen: %d -> %d", gen, p.Gen())
	}
	q := pl.Get()
	if q != p {
		t.Fatal("expected node reuse")
	}
	// A holder that recorded (p, gen) at the first borrow can now tell the
	// node was recycled under it.
	if q.Gen() == gen {
		t.Fatal("recycled node has stale generation")
	}
}

func TestPoolDoubleReturnPanics(t *testing.T) {
	pl := NewPool()
	p := pl.Get()
	pl.Put(p)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("double Put did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "double return") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	pl.Put(p)
}

func TestPoolCrossPoolPutPanics(t *testing.T) {
	a, b := NewPool(), NewPool()
	p := a.Get()
	defer func() {
		if recover() == nil {
			t.Fatal("cross-pool Put did not panic")
		}
	}()
	b.Put(p)
}

func TestPoolLeakedNamesOutstanding(t *testing.T) {
	pl := NewPool()
	kept := pl.Get()
	kept.Flow = 42
	kept.Kind = Data
	done := pl.Get()
	pl.Put(done)
	leaked := pl.Leaked()
	if len(leaked) != 1 || leaked[0] != kept {
		t.Fatalf("Leaked() = %v, want exactly the kept packet", leaked)
	}
	if leaked[0].Flow != 42 {
		t.Fatalf("leaked packet lost identity: %+v", leaked[0])
	}
}

func TestFreeNilIsNoOp(t *testing.T) {
	Free(nil) // nil stays a no-op even under StrictFree
}

func TestStrictFreePanicsOnNonPooled(t *testing.T) {
	if !StrictFree {
		t.Fatal("StrictFree must default to on in test binaries")
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Free of a composite-literal packet must panic under StrictFree")
		}
		if !strings.Contains(r.(string), "non-pooled") {
			t.Fatalf("panic message should name the cause: %v", r)
		}
	}()
	Free(&Packet{Kind: Data, Flow: 7})
}

func TestFreeIgnoresNonPooledWhenLenient(t *testing.T) {
	StrictFree = false
	defer func() { StrictFree = true }()
	Free(&Packet{Kind: Data, Flow: 7}) // composite-literal packet: no-op
}

func TestPoolTraceBufferRecycled(t *testing.T) {
	pl := NewPool()
	p := pl.Get()
	p.AttachTrace()
	p.Trace = append(p.Trace, TraceHop{Node: 3, Port: 1})
	buf := p.Trace[:0]
	pl.Put(p)
	q := pl.Get()
	if q.Trace != nil {
		t.Fatal("Trace survived recycle; tracing-off signal broken")
	}
	q.AttachTrace()
	if len(q.Trace) != 0 || cap(q.Trace) == 0 {
		t.Fatalf("AttachTrace did not reuse storage: len=%d cap=%d", len(q.Trace), cap(q.Trace))
	}
	_ = buf
}

func TestPoolSteadyStateAllocFree(t *testing.T) {
	pl := NewPool()
	// Warm up: one node in the freelist.
	pl.Put(pl.Get())
	n := testing.AllocsPerRun(1000, func() {
		p := pl.Get()
		p.PayloadBytes = DefaultMSS
		pl.Put(p)
	})
	if n != 0 {
		t.Fatalf("steady-state borrow/return allocates %v per op, want 0", n)
	}
}
