package hwlookup

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"dibs/internal/quicktest"
)

func TestForwardWhenDesiredAvailable(t *testing.T) {
	// Desired port 2, all ports available.
	d := Decide(1<<2, 0xFF, 0, 12345)
	if d.Port != 2 || d.Detoured {
		t.Fatalf("got %+v, want forward on port 2", d)
	}
}

func TestForwardPicksAmongDesired(t *testing.T) {
	// ECMP: desired {1,3}, both available.
	seen := map[int]bool{}
	for r := uint64(0); r < 16; r++ {
		d := Decide(1<<1|1<<3, 0xFF, 0, r)
		if d.Detoured || (d.Port != 1 && d.Port != 3) {
			t.Fatalf("got %+v", d)
		}
		seen[d.Port] = true
	}
	if !seen[1] || !seen[3] {
		t.Fatal("both desired ports should be used")
	}
}

func TestDetourWhenDesiredFull(t *testing.T) {
	// Desired 0 unavailable; ports 4..7 available, 4 is a host port.
	avail := uint64(0xF0)
	host := uint64(1 << 4)
	for r := uint64(0); r < 32; r++ {
		d := Decide(1<<0, avail, host, r)
		if !d.Detoured {
			t.Fatalf("expected detour, got %+v", d)
		}
		if d.Port < 5 || d.Port > 7 {
			t.Fatalf("detour to ineligible port %d", d.Port)
		}
	}
}

func TestDropWhenNothingAvailable(t *testing.T) {
	d := Decide(1<<0, 0, 0, 1)
	if d.Port != -1 {
		t.Fatalf("expected drop, got %+v", d)
	}
	// Only host ports available.
	d = Decide(1<<0, 1<<3, 1<<3, 1)
	if d.Port != -1 {
		t.Fatalf("expected drop with host-only availability, got %+v", d)
	}
}

func TestAvailableBitmap(t *testing.T) {
	fullPorts := map[int]bool{1: true, 3: true}
	m := AvailableBitmap(5, func(p int) bool { return fullPorts[p] })
	if m != 0b10101 {
		t.Fatalf("bitmap = %b", m)
	}
}

func TestPickBitUniformity(t *testing.T) {
	mask := uint64(0b1011_0010)
	rng := rand.New(rand.NewSource(5))
	counts := map[int]int{}
	for i := 0; i < 4000; i++ {
		counts[pickBit(mask, rng.Uint64())]++
	}
	for _, b := range []int{1, 4, 5, 7} {
		if counts[b] < 800 {
			t.Fatalf("bit %d undersampled: %v", b, counts)
		}
	}
	if len(counts) != 4 {
		t.Fatalf("picked bits outside mask: %v", counts)
	}
}

// Property: the decision always lands on a set bit of the correct bitmap,
// and drops exactly when no eligible port exists.
func TestQuickDecide(t *testing.T) {
	f := func(desired, available, hostPorts, rnd uint64) bool {
		desired &= 0xFFFF
		available &= 0xFFFF
		hostPorts &= 0xFFFF
		d := Decide(desired, available, hostPorts, rnd)
		if fwd := desired & available; fwd != 0 {
			return !d.Detoured && d.Port >= 0 && fwd&(1<<uint(d.Port)) != 0
		}
		elig := available &^ hostPorts &^ desired
		if elig == 0 {
			return d.Port == -1
		}
		return d.Detoured && d.Port >= 0 && elig&(1<<uint(d.Port)) != 0
	}
	if err := quick.Check(f, quicktest.Config(t, 2000)); err != nil {
		t.Fatal(err)
	}
}

// Property: pickBit always returns a set bit for arbitrary masks.
func TestQuickPickBit(t *testing.T) {
	f := func(mask, rnd uint64) bool {
		if mask == 0 {
			return true
		}
		b := pickBit(mask, rnd)
		return mask&(1<<uint(b)) != 0 && b < 64 && b >= bits.TrailingZeros64(mask)
	}
	if err := quick.Check(f, quicktest.Config(t, 2000)); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkDecide demonstrates the §5.1 claim: the forward/detour decision
// is a handful of bit operations, trivially line-rate (a 64-byte packet at
// 1 Gbps takes 672 ns to serialize; this runs in single-digit ns).
func BenchmarkDecide(b *testing.B) {
	b.ReportAllocs()
	var sink Decision
	for i := 0; i < b.N; i++ {
		sink = Decide(1<<3, 0xFFF0, 0x0F00, uint64(i))
	}
	_ = sink
}

func BenchmarkDecideForwardPath(b *testing.B) {
	b.ReportAllocs()
	var sink Decision
	for i := 0; i < b.N; i++ {
		sink = Decide(1<<3, 0xFFFF, 0, uint64(i))
	}
	_ = sink
}
