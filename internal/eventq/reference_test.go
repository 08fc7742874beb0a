package eventq

import (
	"testing"

	"dibs/internal/rng"
)

// refSched is the oracle the timing wheel is held to: an unordered slice of
// pending events, popped by a linear scan for the (at, pri, seq) minimum and
// canceled by removing the entry on the spot. It shares no code with the
// wheel — no buckets, no tombstones, no freelist — and is slow on purpose.
type refSched struct {
	now Time
	seq uint64
	q   []*refEvent
}

// refEvent doubles as its own timer handle.
type refEvent struct {
	s   *refSched
	at  Time
	pri int64
	seq uint64
	fn  func()
}

// before is the (at, pri, seq) order, spelled out independently of less.
func (e *refEvent) before(b *refEvent) bool {
	if e.at != b.at {
		return e.at < b.at
	}
	if e.pri != b.pri {
		return e.pri < b.pri
	}
	return e.seq < b.seq
}

// Cancel works by identity: an event that fired or was canceled is no
// longer in the slice, so it finds nothing and reports false.
func (e *refEvent) Cancel() bool {
	for i, ev := range e.s.q {
		if ev == e {
			e.s.q = append(e.s.q[:i], e.s.q[i+1:]...)
			return true
		}
	}
	return false
}

func (s *refSched) Now() Time { return s.now }
func (s *refSched) Len() int  { return len(s.q) }
func (s *refSched) Run()      { s.run(MaxTime) }

func (s *refSched) arm(at Time, pri int64, fn func()) canceler {
	ev := &refEvent{s, at, pri, s.seq, fn}
	s.seq++
	s.q = append(s.q, ev)
	return ev
}

// run fires, one at a time, the minimum of whatever is pending at that
// moment, until nothing at or before limit is left.
func (s *refSched) run(limit Time) {
	for {
		m := -1
		for i, ev := range s.q {
			if m < 0 || ev.before(s.q[m]) {
				m = i
			}
		}
		if m < 0 || s.q[m].at > limit {
			return
		}
		ev := s.q[m]
		s.q = append(s.q[:m], s.q[m+1:]...)
		s.now = ev.at
		ev.fn()
	}
}

func (s *refSched) RunUntil(limit Time) {
	s.run(limit)
	if s.now < limit {
		s.now = limit
	}
}

// canceler is the one Timer operation the differential drives.
type canceler interface{ Cancel() bool }

// diffSched is what the differential trace needs from a scheduler.
type diffSched interface {
	Now() Time
	Len() int
	Run()
	RunUntil(Time)
	arm(at Time, pri int64, fn func()) canceler
}

// wheelSched adapts the real Scheduler: AtPri returns the concrete Timer,
// so it cannot satisfy arm as written.
type wheelSched struct{ *Scheduler }

func (w wheelSched) arm(at Time, pri int64, fn func()) canceler { return w.AtPri(at, pri, fn) }

// popRecord is one fired event in a differential trace.
type popRecord struct {
	at  Time
	tag int
}

// linkPris are same-instant keys as netsim hands them to AtPri: 0 for
// ordinary events, 1 + (peer<<16 | port) for link deliveries.
var linkPris = []int64{0, 0, 0, 1, 1 + (3<<16 | 2), 1 + (3<<16 | 5), 1 + 40<<16}

// TestWheelMatchesReferenceOnRandomWorkloads is the differential property
// test: randomized schedule/cancel/reschedule workloads — same-instant
// mixed-pri bursts, cascade-boundary deltas, spill-range "never" timers —
// must produce the same (at, tag) pop sequence from the timing wheel as from
// refSched. Workloads derive from internal/rng so failures reproduce exactly.
func TestWheelMatchesReferenceOnRandomWorkloads(t *testing.T) {
	const (
		trials   = 40
		nSeed    = 400 // events seeded before running
		nDynamic = 6   // actions each callback may take
	)
	for trial := 0; trial < trials; trial++ {
		runTrace := func(s diffSched) []popRecord {
			r := rng.New(int64(trial), "eventq/engines-agree")
			var trace []popRecord
			type armed struct {
				c  canceler
				at Time
			}
			var timers []armed
			tag := 0
			// Delay classes cover every wheel path: same-instant ties,
			// sub-tick, level-0, cascade boundaries at each level, and the
			// spill list on both sides of "ever fires".
			delay := func() Time {
				switch r.Intn(10) {
				case 0:
					return 0 // same instant
				case 1:
					return Time(r.Intn(1 << tickShift)) // sub-tick
				case 2, 3, 4:
					return Time(r.Intn(200 << tickShift)) // level 0
				case 5, 6:
					return Time(r.Intn(1 << (tickShift + 2*levelBits))) // level 1
				case 7:
					return Time(r.Intn(1 << (tickShift + 3*levelBits))) // level 2
				case 8:
					// Hug cascade boundaries: a power-of-two span ± a hair.
					base := Time(1) << uint(tickShift+levelBits*(1+r.Intn(3)))
					return base + Time(r.Intn(5)) - 2
				default:
					if r.Intn(2) == 0 {
						// Past the wheel horizon but finite: parked in the
						// spill list, migrated back and fired by the last Run.
						return Time(1+r.Intn(3))<<(tickShift+4*levelBits) + Time(r.Intn(3))
					}
					return MaxTime - Time(r.Intn(3)) // spill / overflow clamp
				}
			}
			var fire func(int) func()
			// arm schedules one tagged event d from now, clamping overflow
			// to MaxTime as After does, under a random same-instant key.
			arm := func(d Time) armed {
				at := s.Now() + d
				if at < s.Now() {
					at = MaxTime
				}
				tag++
				return armed{s.arm(at, linkPris[r.Intn(len(linkPris))], fire(tag)), at}
			}
			fire = func(myTag int) func() {
				return func() {
					trace = append(trace, popRecord{s.Now(), myTag})
					for k := r.Intn(nDynamic); k > 0; k-- {
						switch r.Intn(4) {
						case 0, 1: // cancel a random outstanding timer
							if len(timers) > 0 {
								timers[r.Intn(len(timers))].c.Cancel()
							}
						case 2: // reschedule: cancel + re-arm
							if len(timers) > 0 {
								i := r.Intn(len(timers))
								if timers[i].c.Cancel() {
									timers[i] = arm(delay())
								}
							}
						default: // spawn a fresh timer, one time in four a
							// mixed-pri burst on one instant — often the tick
							// being drained. Kept subcritical: each fire
							// consumes one event and adds <1 on average, so
							// every trial dies out.
							d, n := delay(), 1
							if r.Intn(4) == 0 {
								n = 3
							}
							for ; n > 0; n-- {
								timers = append(timers, arm(d))
							}
						}
					}
				}
			}
			for i := 0; i < nSeed; i++ {
				timers = append(timers, arm(delay()))
			}
			// Run in bounded windows so RunUntil's mid-drain stop/resume
			// path is exercised too, then drain the finite remainder.
			for _, limit := range []Time{1 << 18, 1 << 26, 1 << 34} {
				s.RunUntil(limit)
			}
			for _, tm := range timers {
				if tm.at > 1<<50 {
					tm.c.Cancel() // drop "never" timers so Run terminates
				}
			}
			// Run (not RunUntil) so the wheel also reclaims the canceled
			// far-future tombstones and drains completely.
			s.Run()
			if s.Len() != 0 {
				t.Fatalf("trial %d: %d events still pending", trial, s.Len())
			}
			return trace
		}
		wheel := runTrace(wheelSched{NewScheduler()})
		ref := runTrace(&refSched{})
		if len(wheel) != len(ref) {
			t.Fatalf("trial %d: wheel fired %d events, reference %d", trial, len(wheel), len(ref))
		}
		for i := range wheel {
			if wheel[i] != ref[i] {
				t.Fatalf("trial %d: pop %d diverges: wheel (at=%d tag=%d), reference (at=%d tag=%d)",
					trial, i, wheel[i].at, wheel[i].tag, ref[i].at, ref[i].tag)
			}
		}
	}
}
