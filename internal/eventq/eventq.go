// Package eventq implements the discrete-event core of the simulator: a
// virtual clock with nanosecond resolution and a timing-wheel scheduler.
//
// All simulator components (links, switches, transport timers, workload
// generators) advance exclusively by scheduling callbacks on a single
// Scheduler. Events fire in (at, pri, seq) order: by time, then by an
// explicit same-instant key (AtPri), then in FIFO order of scheduling,
// which keeps runs deterministic for a fixed seed. Seq and Passed let a
// component keep a happening out of the queue and still order it: it
// records the key the event would have had and later asks whether the run
// has reached it (switching.OutPort's serialization completions).
//
// The priority structure is a hierarchical timing wheel (wheel.go): 4
// cascading levels of 256 slots at a ~1µs tick, with a small sorted spill
// list for events beyond the wheel horizon. Near-horizon events
// (wire deliveries, RTO timers) insert and fire in O(1).
//
// The hot path is allocation-lean: popped and canceled events are recycled
// through a per-Scheduler freelist, so a steady-state run allocates no new
// event nodes. Timer handles are plain values carrying a generation
// counter; a handle to a recycled event is detected as stale and every
// operation on it is a safe no-op.
package eventq

import (
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. It is deliberately a distinct type from time.Duration to keep
// wall-clock time out of the simulator.
type Time int64

// Common durations, expressed in Time units (nanoseconds).
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// MaxTime is the largest representable virtual time; used as "never".
const MaxTime Time = math.MaxInt64

// Duration converts a time.Duration into simulator Time units.
func Duration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Seconds returns t expressed in seconds as a float.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis returns t expressed in milliseconds as a float.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Micros returns t expressed in microseconds as a float.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", t.Millis())
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// event is a scheduled callback. pri orders events within an instant by an
// explicit caller-chosen key (0 for ordinary events; link deliveries carry a
// per-link key so same-instant arrivals order by link identity rather than
// scheduling history — the property that makes sharded runs byte-identical
// to sequential ones). seq breaks the remaining ties so that scheduling
// order is execution order. gen counts how many times the node has been
// recycled through the freelist; a Timer carrying an older gen is stale and
// operates as a no-op.
type event struct {
	at       Time
	pri      int64
	seq      uint64
	fn       func()
	gen      uint32
	canceled bool
	// where says whether the node is queued and, if so, which structure a
	// sweep would find it in. The wheel never needs positional removal:
	// cancellation is lazy.
	where residency
}

type residency uint8

const (
	notQueued residency = iota // popped, recycled, or never scheduled
	inWheel                    // resident in a wheel slot or live sub-bucket
	inSpill                    // resident in the sorted spill list
)

// Timer is a value handle to a scheduled event that can be canceled or
// queried. The zero Timer is valid: Cancel and Pending report false, When
// reports 0. A Timer outliving its event (fired or canceled-and-swept, node
// recycled) is detected via the generation counter and behaves the same.
type Timer struct {
	s   *Scheduler
	ev  *event
	gen uint32
}

// live reports whether the handle still refers to its original scheduling.
func (t Timer) live() bool {
	return t.ev != nil && t.ev.gen == t.gen
}

// Cancel prevents the timer's callback from running. Canceling an already
// fired or already canceled timer is a no-op. Cancel reports whether the
// callback was still pending.
//
// Cancel itself is O(1): it only tombstones the node. The wheel reclaims
// tombstones when their slot is next drained or cascaded, never
// re-entrantly from inside a firing callback.
func (t Timer) Cancel() bool {
	if !t.live() || t.ev.canceled || t.ev.where == notQueued {
		return false
	}
	t.ev.canceled = true
	if t.ev.where == inSpill {
		// Spill tombstones would otherwise linger forever ("never" timers
		// are canceled, not fired); compaction runs at the next refill,
		// outside any firing callback.
		t.s.w.spillTombs++
	}
	return true
}

// Pending reports whether the timer's callback has neither fired nor been
// canceled.
func (t Timer) Pending() bool {
	return t.live() && !t.ev.canceled && t.ev.where != notQueued
}

// When returns the virtual time the timer is scheduled for, or 0 for a zero
// Timer or one whose event has already fired or been canceled.
func (t Timer) When() Time {
	if !t.live() {
		return 0
	}
	return t.ev.at
}

// Scheduler is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use; each simulation is deliberately single-threaded so
// runs are reproducible (parallelism lives above whole runs, in
// internal/runner).
type Scheduler struct {
	now Time
	seq uint64
	w   wheel

	// free holds recycled event nodes.
	free []*event
	// queued counts event nodes currently scheduled (including canceled
	// ones not yet reclaimed).
	queued   int
	executed uint64
	running  bool
	stopped  bool
	// curPri and curSeq complete the running event's (now, pri, seq) key
	// while Run executes it; Passed compares against that key.
	curPri int64
	curSeq uint64
}

// NewScheduler returns a scheduler with the clock at zero.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Len returns the number of pending events (including canceled ones not yet
// discarded).
func (s *Scheduler) Len() int { return s.queued }

// Executed returns the number of callbacks run so far.
func (s *Scheduler) Executed() uint64 { return s.executed }

// Seq returns the sequence number the next scheduled event will carry.
// Together with Passed it lets a component keep a completion it never
// schedules: record (at, Seq()) where the event would have been scheduled,
// and ask Passed later whether it would have run by now.
func (s *Scheduler) Seq() uint64 { return s.seq }

// Pri returns the running (or last run) event's same-instant ordering key
// (see AtPri): with Now, the stamp that orders what an event records.
func (s *Scheduler) Pri() int64 { return s.curPri }

// Passed reports whether an ordinary (pri 0) event at virtual time at,
// carrying sequence number seq, would already have run — that is, whether
// its (at, 0, seq) key is at or before the running event's. Outside Run
// every instant up to Now() counts as passed, as after RunUntil(Now()).
func (s *Scheduler) Passed(at Time, seq uint64) bool {
	if at != s.now || !s.running {
		return at <= s.now
	}
	return s.curPri > 0 || s.curSeq >= seq
}

// At schedules fn to run at absolute virtual time at. Scheduling in the past
// panics: that is always a simulator bug, not a recoverable condition.
func (s *Scheduler) At(at Time, fn func()) Timer {
	return s.AtPri(at, 0, fn)
}

// AtPri is At with an explicit same-instant ordering key: events at one
// virtual instant execute in ascending pri, and by scheduling order within
// equal pri. Ordinary events use pri 0 (and so run before any same-instant
// link delivery); link deliveries pass a stable per-link key so that the
// execution order of same-instant arrivals is a function of the topology,
// not of which scheduler shard queued them first.
func (s *Scheduler) AtPri(at Time, pri int64, fn func()) Timer {
	if at < s.now {
		panic(fmt.Sprintf("eventq: scheduling at %v before now %v", at, s.now))
	}
	ev := s.alloc(at, pri, fn)
	s.wheelInsert(ev)
	s.queued++
	return Timer{s: s, ev: ev, gen: ev.gen}
}

// After schedules fn to run d after the current time. A delay that would
// overflow virtual time (d near MaxTime used as "never") clamps to MaxTime
// instead of wrapping negative.
func (s *Scheduler) After(d Time, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("eventq: negative delay %d", d))
	}
	at := s.now + d
	if at < s.now { // overflow: now + d wrapped past MaxTime
		at = MaxTime
	}
	return s.At(at, fn)
}

// Stop halts Run/RunUntil after the currently executing event returns.
func (s *Scheduler) Stop() { s.stopped = true }

// alloc takes an event node off the freelist (or makes more) and stamps it.
// Nodes are allocated in blocks: the freelist never shrinks, so a growing
// simulation would otherwise pay one allocation per unit of peak pending
// events while it warms up.
func (s *Scheduler) alloc(at Time, pri int64, fn func()) *event {
	n := len(s.free)
	if n == 0 {
		block := make([]event, 64)
		for i := range block {
			s.free = append(s.free, &block[i])
		}
		n = len(s.free)
	}
	ev := s.free[n-1]
	s.free[n-1] = nil
	s.free = s.free[:n-1]
	ev.at, ev.pri, ev.seq, ev.fn = at, pri, s.seq, fn
	s.seq++
	return ev
}

// release bumps the node's generation — invalidating every outstanding
// Timer to it — and returns it to the freelist.
func (s *Scheduler) release(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.canceled = false
	ev.where = notQueued
	s.queued--
	s.free = append(s.free, ev)
}

// less orders events by (at, pri, seq): time first, then the explicit
// same-instant key, then scheduling order. seq is unique, so the order is
// total and runs are deterministic regardless of intermediate layout.
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	return a.seq < b.seq
}

// Run executes events until the queue is empty or Stop is called.
func (s *Scheduler) Run() {
	s.run(MaxTime)
}

// RunUntil executes events with timestamps <= limit, then advances the clock
// to limit. Events beyond limit remain pending.
func (s *Scheduler) RunUntil(limit Time) {
	s.run(limit)
	if s.now < limit {
		s.now = limit
	}
}

func (s *Scheduler) run(limit Time) {
	if s.running {
		panic("eventq: Run re-entered")
	}
	s.running = true
	s.stopped = false
	defer func() { s.running = false }()
	s.runWheel(limit)
}
