package packet

import (
	"testing"
	"testing/quick"

	"dibs/internal/quicktest"
)

func TestSizes(t *testing.T) {
	d := &Packet{Kind: Data, PayloadBytes: DefaultMSS}
	if d.Size() != DefaultMTU {
		t.Fatalf("full data segment size = %d, want %d", d.Size(), DefaultMTU)
	}
	a := &Packet{Kind: Ack, PayloadBytes: 9999} // payload ignored for ACKs
	if a.Size() != AckBytes {
		t.Fatalf("ack size = %d, want %d", a.Size(), AckBytes)
	}
	small := &Packet{Kind: Data, PayloadBytes: 1}
	if small.Size() != HeaderBytes+1 {
		t.Fatalf("1-byte data size = %d", small.Size())
	}
}

func TestEnd(t *testing.T) {
	p := &Packet{Kind: Data, Seq: 1000, PayloadBytes: 500}
	if p.End() != 1500 {
		t.Fatalf("End = %d", p.End())
	}
}

func TestKindString(t *testing.T) {
	if Data.String() != "DATA" || Ack.String() != "ACK" {
		t.Fatal("Kind.String mismatch")
	}
	if Kind(7).String() != "Kind(7)" {
		t.Fatalf("unknown kind: %s", Kind(7).String())
	}
}

func TestString(t *testing.T) {
	p := &Packet{Kind: Data, Flow: 3, Src: 1, Dst: 2, Seq: 0, PayloadBytes: 100, TTL: 64}
	s := p.String()
	if s == "" {
		t.Fatal("empty String()")
	}
}

func TestClone(t *testing.T) {
	p := &Packet{Kind: Data, Flow: 5, Seq: 10, PayloadBytes: 20, TTL: 64,
		Trace: []TraceHop{{Node: 1, Port: 2}}}
	q := p.Clone()
	if q.Trace != nil {
		t.Fatal("Clone should drop trace")
	}
	q.Seq = 99
	if p.Seq != 10 {
		t.Fatal("Clone aliases original")
	}
	if q.Flow != p.Flow || q.PayloadBytes != p.PayloadBytes || q.TTL != p.TTL {
		t.Fatal("Clone lost fields")
	}
}

// Property: Size is always header-bounded and End-Seq equals payload.
func TestQuickSizeInvariants(t *testing.T) {
	f := func(payload uint16, seq uint32, isAck bool) bool {
		k := Data
		if isAck {
			k = Ack
		}
		p := &Packet{Kind: k, Seq: int64(seq), PayloadBytes: int(payload)}
		if p.End()-p.Seq != int64(p.PayloadBytes) {
			return false
		}
		if isAck {
			return p.Size() == AckBytes
		}
		return p.Size() == HeaderBytes+int(payload)
	}
	if err := quick.Check(f, quicktest.Config(t, 0)); err != nil {
		t.Fatal(err)
	}
}
