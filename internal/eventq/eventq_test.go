package eventq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"dibs/internal/quicktest"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{5 * Nanosecond, "5ns"},
		{3 * Microsecond, "3.000us"},
		{Time(2500) * Microsecond, "2.500ms"},
		{Time(1500) * Millisecond, "1.500s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestDurationConversion(t *testing.T) {
	if Duration(time.Millisecond) != Millisecond {
		t.Fatalf("Duration(1ms) = %d", Duration(time.Millisecond))
	}
	if got := (250 * Microsecond).Millis(); got != 0.25 {
		t.Fatalf("Millis = %v", got)
	}
	if got := (2 * Millisecond).Micros(); got != 2000 {
		t.Fatalf("Micros = %v", got)
	}
	if got := (500 * Millisecond).Seconds(); got != 0.5 {
		t.Fatalf("Seconds = %v", got)
	}
}

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.At(30, func() { order = append(order, 3) })
	s.At(10, func() { order = append(order, 1) })
	s.At(20, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != 30 {
		t.Fatalf("Now = %v", s.Now())
	}
	if s.Executed() != 3 {
		t.Fatalf("Executed = %d", s.Executed())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(100, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events out of FIFO order: %v", order)
		}
	}
}

func TestAfterAndNesting(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	s.After(10, func() {
		fired = append(fired, s.Now())
		s.After(5, func() {
			fired = append(fired, s.Now())
		})
	})
	s.Run()
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 15 {
		t.Fatalf("fired = %v", fired)
	}
}

func TestRunUntil(t *testing.T) {
	s := NewScheduler()
	ran := 0
	s.At(10, func() { ran++ })
	s.At(20, func() { ran++ })
	s.At(30, func() { ran++ })
	s.RunUntil(20)
	if ran != 2 {
		t.Fatalf("ran = %d, want 2", ran)
	}
	if s.Now() != 20 {
		t.Fatalf("Now = %v, want 20", s.Now())
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	s.RunUntil(100)
	if ran != 3 || s.Now() != 100 {
		t.Fatalf("ran=%d now=%v", ran, s.Now())
	}
}

func TestCancel(t *testing.T) {
	s := NewScheduler()
	ran := false
	tm := s.At(10, func() { ran = true })
	if !tm.Pending() {
		t.Fatal("timer should be pending")
	}
	if !tm.Cancel() {
		t.Fatal("Cancel should report true for pending timer")
	}
	if tm.Cancel() {
		t.Fatal("second Cancel should report false")
	}
	if tm.Pending() {
		t.Fatal("canceled timer should not be pending")
	}
	s.Run()
	if ran {
		t.Fatal("canceled event ran")
	}
}

func TestCancelAfterFire(t *testing.T) {
	s := NewScheduler()
	tm := s.At(10, func() {})
	s.Run()
	if tm.Pending() {
		t.Fatal("fired timer still pending")
	}
	if tm.Cancel() {
		t.Fatal("Cancel after fire should report false")
	}
}

func TestTimerWhen(t *testing.T) {
	s := NewScheduler()
	tm := s.At(42, func() {})
	if tm.When() != 42 {
		t.Fatalf("When = %v", tm.When())
	}
}

func TestStop(t *testing.T) {
	s := NewScheduler()
	ran := 0
	s.At(10, func() { ran++; s.Stop() })
	s.At(20, func() { ran++ })
	s.Run()
	if ran != 1 {
		t.Fatalf("ran = %d, want 1 (Stop should halt)", ran)
	}
	// Resuming picks up where it left off.
	s.Run()
	if ran != 2 {
		t.Fatalf("ran = %d after resume, want 2", ran)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := NewScheduler()
	s.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		s.At(5, func() {})
	})
	s.Run()
}

func TestNegativeAfterPanics(t *testing.T) {
	s := NewScheduler()
	defer func() {
		if recover() == nil {
			t.Error("negative After should panic")
		}
	}()
	s.After(-1, func() {})
}

// Property: regardless of insertion order, events fire in nondecreasing time
// order and the clock matches each event's scheduled time.
func TestQuickTimeOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		s := NewScheduler()
		var fired []Time
		for _, d := range delays {
			at := Time(d)
			s.At(at, func() {
				if s.Now() != at {
					t.Errorf("clock %v != scheduled %v", s.Now(), at)
				}
				fired = append(fired, s.Now())
			})
		}
		s.Run()
		if len(fired) != len(delays) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, quicktest.Config(t, 200)); err != nil {
		t.Fatal(err)
	}
}

// Property: canceling a random subset fires exactly the complement.
func TestQuickCancelSubset(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler()
		fired := make(map[int]bool)
		timers := make([]Timer, n)
		for i := 0; i < int(n); i++ {
			i := i
			timers[i] = s.At(Time(rng.Intn(1000)), func() { fired[i] = true })
		}
		canceled := make(map[int]bool)
		for i := range timers {
			if rng.Intn(2) == 0 {
				timers[i].Cancel()
				canceled[i] = true
			}
		}
		s.Run()
		for i := 0; i < int(n); i++ {
			if fired[i] == canceled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quicktest.Config(t, 100)); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSchedulerChurn(b *testing.B) {
	s := NewScheduler()
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	var chain func()
	remaining := b.N
	chain = func() {
		if remaining <= 0 {
			return
		}
		remaining--
		s.After(Time(rng.Intn(100)+1), chain)
	}
	// Keep ~64 events in flight.
	for i := 0; i < 64 && remaining > 0; i++ {
		remaining--
		s.After(Time(rng.Intn(100)+1), chain)
	}
	b.ResetTimer()
	s.Run()
}

// TestSameInstantFIFOUnderHeapChurn pins the (at, seq) tie-break while the
// queue is busy with events at many other instants: inserts and pops around
// a tied group must never reorder its equal-time events. A scheduler refactor that drops the seq field
// passes the simple FIFO test by luck far more easily than this one.
func TestSameInstantFIFOUnderHeapChurn(t *testing.T) {
	s := NewScheduler()
	const tied = 100
	var got []int
	// Surround the tied instant with earlier and later events, interleaving
	// insertion so tied events arrive between unrelated queue operations.
	for i := 0; i < tied; i++ {
		i := i
		s.At(Time(10*i+5), func() {})               // before the tie
		s.At(5000, func() { got = append(got, i) }) // the tied instant
		s.At(Time(9000+7*i), func() {})             // after the tie
	}
	s.Run()
	if len(got) != tied {
		t.Fatalf("ran %d tied events, want %d", len(got), tied)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("tied events out of insertion order at %d: %v", i, got[:i+1])
		}
	}
}

// TestSameInstantFIFOAcrossAtAndAfter pins that At(now+d) and After(d) land
// in one FIFO ordered purely by scheduling call order.
func TestSameInstantFIFOAcrossAtAndAfter(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.After(50, func() { got = append(got, 0) })
	s.At(50, func() { got = append(got, 1) })
	s.After(50, func() { got = append(got, 2) })
	s.At(50, func() { got = append(got, 3) })
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("mixed At/After tie broke FIFO: %v", got)
		}
	}
}

// TestNestedSameInstantRunsAfterQueued pins that an event scheduled *for the
// current instant from within a callback* runs after everything already
// queued at that instant (its seq is larger), not immediately.
func TestNestedSameInstantRunsAfterQueued(t *testing.T) {
	s := NewScheduler()
	var got []string
	s.At(10, func() {
		got = append(got, "first")
		s.At(10, func() { got = append(got, "nested") })
		s.After(0, func() { got = append(got, "nested-after0") })
	})
	s.At(10, func() { got = append(got, "second") })
	s.Run()
	want := []string{"first", "second", "nested", "nested-after0"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("nested same-instant ordering: got %v, want %v", got, want)
		}
	}
}

// TestTimerWhenZeroValue is the regression test for the When() nil
// dereference: a zero Timer (never scheduled) must report 0, exactly like
// Cancel and Pending tolerate the zero value.
func TestTimerWhenZeroValue(t *testing.T) {
	var tm Timer
	if got := tm.When(); got != 0 {
		t.Fatalf("zero Timer When = %v, want 0", got)
	}
	if tm.Cancel() {
		t.Fatal("zero Timer Cancel should report false")
	}
	if tm.Pending() {
		t.Fatal("zero Timer Pending should report false")
	}
}

// TestTimerWhenAfterFire pins that a fired timer's When reports 0 rather
// than the stale scheduled time of whatever event recycled its node.
func TestTimerWhenAfterFire(t *testing.T) {
	s := NewScheduler()
	tm := s.At(42, func() {})
	s.Run()
	if got := tm.When(); got != 0 {
		t.Fatalf("fired Timer When = %v, want 0", got)
	}
}

// TestStaleHandleAfterRecycle pins the generation counter: once a timer's
// event node has been recycled to back a *different* event, the old handle
// must stay inert — Cancel must not kill the new event, Pending/When must
// not report the new event's state.
func TestStaleHandleAfterRecycle(t *testing.T) {
	s := NewScheduler()
	old := s.At(10, func() {})
	s.RunUntil(10) // fires old; its node goes to the freelist
	ran := false
	fresh := s.At(50, func() { ran = true }) // reuses the recycled node
	if old.Pending() {
		t.Fatal("stale handle reports Pending for recycled node")
	}
	if old.When() != 0 {
		t.Fatalf("stale handle When = %v, want 0", old.When())
	}
	if old.Cancel() {
		t.Fatal("stale handle Cancel reported true")
	}
	if !fresh.Pending() {
		t.Fatal("stale Cancel killed the new event")
	}
	s.Run()
	if !ran {
		t.Fatal("new event did not run after stale Cancel")
	}
}

// TestCanceledThenSweptHandle pins that handles to canceled events stay
// inert once their nodes are reclaimed and recycled.
func TestCanceledThenSweptHandle(t *testing.T) {
	s := NewScheduler()
	var timers []Timer
	ran := 0
	for i := 0; i < 100; i++ {
		timers = append(timers, s.At(Time(100+i), func() { ran++ }))
	}
	// Cancel most of the queue.
	for i := 0; i < 80; i++ {
		timers[i].Cancel()
	}
	for i := 0; i < 80; i++ {
		if timers[i].Pending() {
			t.Fatalf("canceled timer %d still pending after sweep", i)
		}
		if timers[i].Cancel() {
			t.Fatalf("re-Cancel of swept timer %d reported true", i)
		}
	}
	for i := 80; i < 100; i++ {
		if !timers[i].Pending() {
			t.Fatalf("live timer %d lost by sweep", i)
		}
	}
	s.Run()
	if ran != 20 {
		t.Fatalf("ran = %d, want 20", ran)
	}
}

// TestSweepPreservesOrder pins that tombstone reclamation does not perturb
// the (at, seq) pop order, including same-instant FIFO ties.
func TestSweepPreservesOrder(t *testing.T) {
	s := NewScheduler()
	var timers []Timer
	var got []int
	for i := 0; i < 200; i++ {
		i := i
		at := Time(1000 + 10*(i%7)) // many ties across several instants
		timers = append(timers, s.At(at, func() { got = append(got, i) }))
	}
	for i := 0; i < 200; i += 2 { // cancel half: triggers sweeps
		timers[i].Cancel()
	}
	s.Run()
	var want []int
	for at := 0; at < 7; at++ {
		for i := 1; i < 200; i += 2 {
			if i%7 == at {
				want = append(want, i)
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sweep perturbed order at %d: got %v, want %v", i, got[:i+1], want[:i+1])
		}
	}
}

// TestFreelistRecycles pins the allocation-lean claim: steady-state
// schedule/fire churn must reuse nodes instead of growing the freelist or
// allocating fresh ones.
func TestFreelistRecycles(t *testing.T) {
	s := NewScheduler()
	var chain func()
	n := 0
	chain = func() {
		if n++; n < 1000 {
			s.After(1, chain)
		}
	}
	s.After(1, chain)
	s.Run()
	if n != 1000 {
		t.Fatalf("chain ran %d times", n)
	}
	// One event in flight at a time: the freelist should hold exactly the
	// first allocation block, not a thousand nodes — steady-state churn
	// reuses one node rather than allocating.
	if len(s.free) != 64 {
		t.Fatalf("freelist holds %d nodes, want one 64-node block", len(s.free))
	}
}

// TestCancelDoesNotDisturbTieOrder pins that canceling one event in a tied
// group leaves the remaining events in insertion order.
func TestCancelDoesNotDisturbTieOrder(t *testing.T) {
	s := NewScheduler()
	var got []int
	var timers []Timer
	for i := 0; i < 20; i++ {
		i := i
		timers = append(timers, s.At(77, func() { got = append(got, i) }))
	}
	for i := 1; i < 20; i += 3 {
		if !timers[i].Cancel() {
			t.Fatalf("cancel %d failed", i)
		}
	}
	s.Run()
	want := 0
	for _, v := range got {
		for want%3 == 1 { // canceled residues
			want++
		}
		if v != want {
			t.Fatalf("post-cancel tie order broke: %v", got)
		}
		want++
	}
	if len(got) != 13 {
		t.Fatalf("ran %d events, want 13", len(got))
	}
}
