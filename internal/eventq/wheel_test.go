package eventq

import "testing"

// TestAfterOverflowClampsToMaxTime is the regression test for the After
// overflow bug: now + d wrapping negative used to panic as past-scheduling
// (or, worse, corrupt ordering). A "never"-style delay must clamp to
// MaxTime.
func TestAfterOverflowClampsToMaxTime(t *testing.T) {
	// The lone subtest keeps the test IDs CI history and baselines know.
	t.Run("wheel", func(t *testing.T) {
		s := NewScheduler()
		s.At(100, func() {})
		s.RunUntil(100) // now = 100, so now + MaxTime overflows
		tm := s.After(MaxTime, func() { t.Fatal("never-timer fired") })
		if got := tm.When(); got != MaxTime {
			t.Fatalf("After(MaxTime) scheduled at %d, want MaxTime", got)
		}
		// A second overflow-range delay must order after everything
		// finite and not disturb the clock.
		s.After(MaxTime-50, func() { t.Fatal("never-timer fired") })
		fired := false
		s.After(10, func() { fired = true })
		s.RunUntil(1000)
		if !fired {
			t.Fatal("finite timer did not fire")
		}
		if s.Now() != 1000 {
			t.Fatalf("clock at %v, want 1000", s.Now())
		}
		if !tm.Cancel() {
			t.Fatal("never-timer was not pending")
		}
	})
}

// TestCancelInsideCallbackDefersCompaction is the regression test for the
// re-entrant tombstone sweep: a callback canceling many sibling timers must
// not compact the structure mid-pop. The canceled timers must not fire, the
// survivors must fire in order, and handles must stay coherent.
func TestCancelInsideCallbackDefersCompaction(t *testing.T) {
	t.Run("wheel", func(t *testing.T) {
		s := NewScheduler()
		const n = 64
		var timers []Timer
		var fired []int
		// Interleave victims across the whole horizon so the cancels
		// hit events at many positions of the live structure.
		for i := 0; i < n; i++ {
			i := i
			timers = append(timers, s.At(Time(10+i), func() { fired = append(fired, i) }))
		}
		// The first event cancels every odd sibling from inside the
		// run loop.
		s.At(5, func() {
			for i := 1; i < n; i += 2 {
				if !timers[i].Cancel() {
					t.Errorf("cancel %d failed", i)
				}
			}
		})
		s.Run()
		if len(fired) != n/2 {
			t.Fatalf("fired %d events, want %d", len(fired), n/2)
		}
		for k, v := range fired {
			if v != 2*k {
				t.Fatalf("fired order wrong at %d: got %d, want %d", k, v, 2*k)
			}
		}
		for i, tm := range timers {
			if tm.Pending() {
				t.Fatalf("timer %d still pending after run", i)
			}
		}
	})
}

// TestCancelNextEventInsideCallback pins the sharpest re-entrancy case: a
// firing callback cancels the event that is immediately next at the same
// instant, in a slot that already holds tombstones.
func TestCancelNextEventInsideCallback(t *testing.T) {
	t.Run("wheel", func(t *testing.T) {
		s := NewScheduler()
		var got []string
		var next Timer
		// Build up tombstone pressure first.
		for i := 0; i < 8; i++ {
			s.At(50, func() {}).Cancel()
		}
		s.At(50, func() {
			got = append(got, "a")
			if !next.Cancel() {
				t.Error("cancel of same-instant successor failed")
			}
		})
		next = s.At(50, func() { got = append(got, "b") })
		s.At(50, func() { got = append(got, "c") })
		s.Run()
		if len(got) != 2 || got[0] != "a" || got[1] != "c" {
			t.Fatalf("got %v, want [a c]", got)
		}
	})
}

// TestSpillTimersFireInOrder covers the overflow list end to end: events
// beyond the wheel horizon must migrate back into the wheel and fire in
// (at, seq) order, including ties.
func TestSpillTimersFireInOrder(t *testing.T) {
	s := NewScheduler()
	horizon := Time(span(3)) << tickShift
	var got []int
	for i, at := range []Time{horizon * 3, horizon * 2, horizon * 2, horizon*2 + 7, horizon * 5} {
		i := i
		s.At(at, func() { got = append(got, i) })
	}
	canceled := s.At(horizon*2+3, func() { t.Fatal("canceled spill timer fired") })
	canceled.Cancel()
	s.Run()
	want := []int{1, 2, 3, 0, 4}
	if len(got) != len(want) {
		t.Fatalf("fired %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("spill order: got %v, want %v", got, want)
		}
	}
}
