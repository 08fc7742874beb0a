package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dibs/internal/packet"
	"dibs/internal/quicktest"
)

// fakeView is a scriptable SwitchView.
type fakeView struct {
	hostPorts map[int]bool
	full      map[int]bool
	lens      map[int]int
	n         int
}

func (v *fakeView) NumPorts() int         { return v.n }
func (v *fakeView) IsHostPort(p int) bool { return v.hostPorts[p] }
func (v *fakeView) QueueFull(p int) bool  { return v.full[p] }
func (v *fakeView) QueueLen(p int) int    { return v.lens[p] }

func newView(n int) *fakeView {
	return &fakeView{
		n:         n,
		hostPorts: map[int]bool{},
		full:      map[int]bool{},
		lens:      map[int]int{},
	}
}

func pkt() *packet.Packet { return &packet.Packet{Kind: packet.Data, Flow: 7} }

func TestRandomAvoidsHostAndFullPorts(t *testing.T) {
	v := newView(8)
	v.full[0] = true // desired
	v.hostPorts[1] = true
	v.hostPorts[2] = true
	v.full[3] = true
	// eligible: 4,5,6,7
	rng := rand.New(rand.NewSource(1))
	pol := NewRandom()
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		got := pol.SelectDetour(v, pkt(), 0, rng)
		if got < 4 {
			t.Fatalf("random detour picked ineligible port %d", got)
		}
		seen[got] = true
	}
	for p := 4; p <= 7; p++ {
		if !seen[p] {
			t.Errorf("eligible port %d never chosen in 200 draws", p)
		}
	}
}

func TestRandomDropWhenNoEligible(t *testing.T) {
	v := newView(4)
	for i := 0; i < 4; i++ {
		v.full[i] = true
	}
	rng := rand.New(rand.NewSource(1))
	if got := NewRandom().SelectDetour(v, pkt(), 0, rng); got != -1 {
		t.Fatalf("expected drop (-1), got %d", got)
	}
	// All host ports except desired: also drop.
	v2 := newView(4)
	v2.full[0] = true
	v2.hostPorts[1] = true
	v2.hostPorts[2] = true
	v2.hostPorts[3] = true
	if got := NewRandom().SelectDetour(v2, pkt(), 0, rng); got != -1 {
		t.Fatalf("expected drop with only host ports, got %d", got)
	}
}

func TestRandomNeverPicksDesired(t *testing.T) {
	// Desired port not marked full (e.g. shared-pool race); policy must
	// still not bounce the packet back onto the same queue.
	v := newView(3)
	v.hostPorts[2] = true
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		if got := NewRandom().SelectDetour(v, pkt(), 0, rng); got != 1 {
			t.Fatalf("only port 1 is eligible, got %d", got)
		}
	}
}

func TestLoadAwarePicksShortest(t *testing.T) {
	v := newView(5)
	v.full[0] = true
	v.lens[1] = 30
	v.lens[2] = 5
	v.lens[3] = 40
	v.lens[4] = 12
	rng := rand.New(rand.NewSource(1))
	if got := NewLoadAware().SelectDetour(v, pkt(), 0, rng); got != 2 {
		t.Fatalf("load-aware picked %d, want 2", got)
	}
}

func TestLoadAwareTieBreakUniform(t *testing.T) {
	v := newView(4)
	v.full[0] = true
	v.lens[1] = 5
	v.lens[2] = 5
	v.lens[3] = 9
	rng := rand.New(rand.NewSource(42))
	counts := map[int]int{}
	for i := 0; i < 1000; i++ {
		counts[NewLoadAware().SelectDetour(v, pkt(), 0, rng)]++
	}
	if counts[3] != 0 {
		t.Fatal("longer queue chosen despite shorter ties")
	}
	if counts[1] < 300 || counts[2] < 300 {
		t.Fatalf("tie break skewed: %v", counts)
	}
}

func TestFlowBasedConsistency(t *testing.T) {
	v := newView(6)
	v.full[0] = true
	pol := NewFlowBased()
	rng := rand.New(rand.NewSource(1))
	p := pkt()
	first := pol.SelectDetour(v, p, 0, rng)
	for i := 0; i < 20; i++ {
		if got := pol.SelectDetour(v, p, 0, rng); got != first {
			t.Fatal("flow-based detour not consistent for same flow")
		}
	}
	// Different flows should spread across ports.
	seen := map[int]bool{}
	for f := packet.FlowID(0); f < 64; f++ {
		seen[pol.SelectDetour(v, &packet.Packet{Flow: f}, 0, rng)] = true
	}
	if len(seen) < 3 {
		t.Fatalf("flow-based hashing too skewed: %d distinct ports", len(seen))
	}
}

func TestFlowHashDistribution(t *testing.T) {
	buckets := make([]int, 4)
	for f := packet.FlowID(0); f < 4000; f++ {
		buckets[FlowHash(f, 1)%4]++
	}
	for i, b := range buckets {
		if b < 800 || b > 1200 {
			t.Fatalf("bucket %d = %d, too skewed", i, b)
		}
	}
}

func TestFlowHashSeedIndependence(t *testing.T) {
	// Different seeds should decorrelate the same flow's choices.
	same := 0
	for f := packet.FlowID(0); f < 1000; f++ {
		if FlowHash(f, 1)%4 == FlowHash(f, 2)%4 {
			same++
		}
	}
	if same > 400 {
		t.Fatalf("seeds too correlated: %d/1000 collisions", same)
	}
}

// Property: every policy returns either -1 or an eligible port, for random
// switch states.
func TestQuickPoliciesReturnEligible(t *testing.T) {
	policies := []Policy{NewRandom(), NewLoadAware(), NewFlowBased()}
	f := func(seed int64, hostMask, fullMask uint8, desired uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		v := newView(8)
		d := int(desired % 8)
		v.full[d] = true
		for i := 0; i < 8; i++ {
			if hostMask&(1<<uint(i)) != 0 {
				v.hostPorts[i] = true
			}
			if fullMask&(1<<uint(i)) != 0 {
				v.full[i] = true
			}
			v.lens[i] = rng.Intn(100)
		}
		p := &packet.Packet{Flow: packet.FlowID(seed)}
		for _, pol := range policies {
			got := pol.SelectDetour(v, p, d, rng)
			if got == -1 {
				// Verify there truly was no eligible port.
				for i := 0; i < 8; i++ {
					if i != d && !v.hostPorts[i] && !v.full[i] {
						return false
					}
				}
				continue
			}
			if got == d || v.hostPorts[got] || v.full[got] || got >= 8 || got < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quicktest.Config(t, 500)); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRandomSelect(b *testing.B) {
	v := newView(8)
	v.full[0] = true
	v.hostPorts[1] = true
	rng := rand.New(rand.NewSource(1))
	pol := NewRandom()
	p := pkt()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pol.SelectDetour(v, p, 0, rng)
	}
}
