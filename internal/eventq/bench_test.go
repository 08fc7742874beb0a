package eventq

import (
	"math/rand"
	"testing"
)

// BenchmarkSchedulePop measures the basic push/pop cycle with a standing
// population of pending events, the common steady-state shape of a packet
// simulation (one pop schedules roughly one push). The delay profiles span
// the wheel's easy and hard regimes: "tick" delays (~1 event per slot
// drain), "subtick" delays inside the live 1024ns tick (the calendar-split
// sub-bucket path: every reschedule lands in the tick being drained), and
// "subbucket" delays inside a single 128ns sub-bucket (the residual
// binary-insert worst case).
func BenchmarkSchedulePop(b *testing.B) {
	profiles := []struct {
		name string
		span int // delays drawn from [1, span]
	}{
		{"tick", 1000},
		{"subtick", 1023},
		{"subbucket", 127},
	}
	for _, p := range profiles {
		span := p.span
		b.Run(p.name, func(b *testing.B) {
			s := NewScheduler()
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			remaining := b.N
			var chain func()
			chain = func() {
				if remaining <= 0 {
					return
				}
				remaining--
				s.After(Time(rng.Intn(span)+1), chain)
			}
			// Standing population of 1024 in-flight events.
			for i := 0; i < 1024 && remaining > 0; i++ {
				remaining--
				s.After(Time(rng.Intn(span)+1), chain)
			}
			b.ResetTimer()
			s.Run()
		})
	}
}

// BenchmarkCancelHeavy models retransmit timers: almost every scheduled
// event is canceled before it would fire (the ACK arrives first), so
// tombstone reclamation and the freelist dominate.
func BenchmarkCancelHeavy(b *testing.B) {
	s := NewScheduler()
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	remaining := b.N
	var tick func()
	var pending Timer
	tick = func() {
		// Cancel the previous "RTO", arm a new one, schedule the next tick.
		pending.Cancel()
		if remaining <= 0 {
			return
		}
		remaining--
		pending = s.After(Time(rng.Intn(100)+50), func() {})
		s.After(1, tick)
	}
	s.After(1, tick)
	b.ResetTimer()
	s.Run()
}

// BenchmarkSameInstantBurst models an incast: large batches of events all
// landing on one instant, stressing the seq tie-break and the slot-batch
// drain, where comparisons resolve on the last key.
func BenchmarkSameInstantBurst(b *testing.B) {
	const burst = 256
	s := NewScheduler()
	b.ReportAllocs()
	remaining := b.N
	var arm func()
	arm = func() {
		if remaining <= 0 {
			return
		}
		at := s.Now() + 100
		n := burst
		if n > remaining {
			n = remaining
		}
		remaining -= n
		for i := 0; i < n-1; i++ {
			s.At(at, func() {})
		}
		s.At(at, arm) // last of the burst schedules the next burst
	}
	arm()
	b.ResetTimer()
	s.Run()
}

// BenchmarkLongHorizon measures scheduling far beyond the level-0 window,
// forcing inserts into the upper wheel levels and cascades back down as
// virtual time advances — the wheel's worst case.
func BenchmarkLongHorizon(b *testing.B) {
	s := NewScheduler()
	rng := rand.New(rand.NewSource(3))
	b.ReportAllocs()
	remaining := b.N
	var chain func()
	chain = func() {
		if remaining <= 0 {
			return
		}
		remaining--
		// 350µs-style RTO horizon: lands two wheel levels up.
		s.After(Time(rng.Intn(400_000)+100_000), chain)
	}
	for i := 0; i < 512 && remaining > 0; i++ {
		remaining--
		s.After(Time(rng.Intn(400_000)+100_000), chain)
	}
	b.ResetTimer()
	s.Run()
}
