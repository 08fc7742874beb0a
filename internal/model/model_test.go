package model

import (
	"testing"
	"testing/quick"

	"dibs/internal/eventq"
	"dibs/internal/quicktest"
)

func TestWireBytes(t *testing.T) {
	w := DefaultWire
	if w.WireBytes(0) != 0 || w.Segments(0) != 0 {
		t.Fatal("zero payload")
	}
	if w.WireBytes(1) != 41 {
		t.Fatalf("1 byte -> %d wire bytes", w.WireBytes(1))
	}
	if w.WireBytes(1460) != 1500 {
		t.Fatalf("full segment -> %d", w.WireBytes(1460))
	}
	if w.WireBytes(1461) != 1461+80 {
		t.Fatalf("1461 bytes -> %d", w.WireBytes(1461))
	}
	if w.Segments(20_000) != 14 {
		t.Fatalf("20KB -> %d segments", w.Segments(20_000))
	}
}

func TestSerializationTime(t *testing.T) {
	// 1500 bytes at 1Gbps = 12us.
	if got := SerializationTime(1500, 1_000_000_000); got != 12*eventq.Microsecond {
		t.Fatalf("serialization = %v", got)
	}
}

func TestIncastIdealQCT(t *testing.T) {
	// 40 x 20KB at 1Gbps: 40 x 20560 wire bytes = 822400B -> 6.58ms.
	got := IncastIdealQCT(40, 20_000, 1_000_000_000, 100*eventq.Microsecond, DefaultWire)
	if got < 6*eventq.Millisecond || got > 7*eventq.Millisecond {
		t.Fatalf("ideal QCT = %v, want ~6.6ms", got)
	}
}

func TestSlowStartIdealFCT(t *testing.T) {
	rtt := 200 * eventq.Microsecond
	// Tiny flow: one round trip dominates.
	small := SlowStartIdealFCT(1000, 1_000_000_000, rtt, 10, DefaultWire)
	if small < rtt || small > rtt+50*eventq.Microsecond {
		t.Fatalf("small-flow FCT = %v", small)
	}
	// Large flow: serialization dominates: 10MB ~ 82ms at 1Gbps.
	large := SlowStartIdealFCT(10_000_000, 1_000_000_000, rtt, 10, DefaultWire)
	if large < 80*eventq.Millisecond || large > 90*eventq.Millisecond {
		t.Fatalf("large-flow FCT = %v", large)
	}
	// Window-limited mid-size flow needs multiple RTTs.
	mid := SlowStartIdealFCT(100_000, 10_000_000_000, rtt, 10, DefaultWire)
	if mid < 2*rtt {
		t.Fatalf("mid-flow FCT = %v, want >= 3 RTTs", mid)
	}
}

func TestBaseRTT(t *testing.T) {
	// One hop at 1Gbps: data 12us + 1.5us, ack 0.32us + 1.5us ~ 15.3us.
	got := BaseRTT(1, 1_000_000_000, 1500*eventq.Nanosecond, DefaultWire)
	if got < 15*eventq.Microsecond || got > 16*eventq.Microsecond {
		t.Fatalf("1-hop RTT = %v", got)
	}
	if BaseRTT(6, 1_000_000_000, 1500, DefaultWire) != 6*got {
		t.Fatal("RTT should scale linearly in hops")
	}
}

func TestFairShare(t *testing.T) {
	if FairShare(1_000_000_000, 4) != 250_000_000 {
		t.Fatal("fair share")
	}
	if FairShare(1_000_000_000, 0) != 0 {
		t.Fatal("degenerate fair share")
	}
}

// Property: wire bytes are monotone in payload and bounded by
// payload * (1 + header/mss) + header.
func TestQuickWireBytesMonotone(t *testing.T) {
	w := DefaultWire
	f := func(a, b uint32) bool {
		x, y := int64(a%10_000_000), int64(b%10_000_000)
		if x > y {
			x, y = y, x
		}
		if w.WireBytes(x) > w.WireBytes(y) {
			return false
		}
		overhead := w.WireBytes(y) - y
		return overhead <= (w.Segments(y))*int64(w.HeaderBytes)+int64(w.HeaderBytes)
	}
	if err := quick.Check(f, quicktest.Config(t, 0)); err != nil {
		t.Fatal(err)
	}
}

// Property: ideal QCT scales linearly in degree and response size.
func TestQuickIncastLinearity(t *testing.T) {
	f := func(degRaw, kbRaw uint8) bool {
		deg := int(degRaw%100) + 1
		bytes := (int64(kbRaw%100) + 1) * 1000
		base := IncastIdealQCT(deg, bytes, 1_000_000_000, 0, DefaultWire)
		double := IncastIdealQCT(2*deg, bytes, 1_000_000_000, 0, DefaultWire)
		ratio := float64(double) / float64(base)
		return ratio > 1.99 && ratio < 2.01
	}
	if err := quick.Check(f, quicktest.Config(t, 200)); err != nil {
		t.Fatal(err)
	}
}
