package transport

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dibs/internal/quicktest"
)

func TestRangeSetBasic(t *testing.T) {
	var rs rangeSet
	rs.add(0, 10)
	if rs.contiguousFrom(0) != 10 {
		t.Fatalf("contiguous = %d", rs.contiguousFrom(0))
	}
	rs.add(20, 30)
	if rs.contiguousFrom(0) != 10 {
		t.Fatal("gap should stop contiguity")
	}
	rs.add(10, 20)
	if rs.contiguousFrom(0) != 30 {
		t.Fatalf("merged contiguous = %d", rs.contiguousFrom(0))
	}
	if rs.covered() != 30 {
		t.Fatalf("covered = %d", rs.covered())
	}
}

func TestRangeSetOverlaps(t *testing.T) {
	var rs rangeSet
	rs.add(5, 15)
	rs.add(10, 20) // overlap right
	rs.add(0, 7)   // overlap left
	if rs.covered() != 20 {
		t.Fatalf("covered = %d, want 20", rs.covered())
	}
	if rs.contiguousFrom(0) != 20 {
		t.Fatalf("contiguous = %d", rs.contiguousFrom(0))
	}
	rs.add(0, 20) // full duplicate
	if rs.covered() != 20 {
		t.Fatal("duplicate changed coverage")
	}
}

func TestRangeSetEmptyAndDegenerate(t *testing.T) {
	var rs rangeSet
	if rs.contiguousFrom(0) != 0 || rs.covered() != 0 {
		t.Fatal("empty set")
	}
	rs.add(5, 5) // degenerate
	rs.add(7, 3) // inverted
	if rs.covered() != 0 {
		t.Fatal("degenerate ranges should be ignored")
	}
}

func TestRangeSetContiguousFromMiddle(t *testing.T) {
	var rs rangeSet
	rs.add(0, 10)
	rs.add(15, 25)
	if rs.contiguousFrom(15) != 25 {
		t.Fatalf("from 15: %d", rs.contiguousFrom(15))
	}
	if rs.contiguousFrom(12) != 12 {
		t.Fatalf("from 12 (hole): %d", rs.contiguousFrom(12))
	}
	if rs.contiguousFrom(5) != 10 {
		t.Fatalf("from 5: %d", rs.contiguousFrom(5))
	}
}

// Property: inserting all MSS segments of a flow in any order yields full
// coverage and contiguity, regardless of duplicates.
func TestQuickRangeSetReassembly(t *testing.T) {
	f := func(seed int64, nSegs uint8, dups uint8) bool {
		n := int(nSegs%64) + 1
		rng := rand.New(rand.NewSource(seed))
		segs := rng.Perm(n)
		// Append some duplicates.
		for i := 0; i < int(dups%16); i++ {
			segs = append(segs, rng.Intn(n))
		}
		var rs rangeSet
		const mss = 1460
		for _, s := range segs {
			rs.add(int64(s)*mss, int64(s+1)*mss)
		}
		return rs.covered() == int64(n)*mss && rs.contiguousFrom(0) == int64(n)*mss
	}
	if err := quick.Check(f, quicktest.Config(t, 200)); err != nil {
		t.Fatal(err)
	}
}

// Property: coverage is monotone non-decreasing and bounded by the span.
func TestQuickRangeSetMonotone(t *testing.T) {
	f := func(ops [][2]uint16) bool {
		var rs rangeSet
		prev := int64(0)
		for _, op := range ops {
			lo, hi := int64(op[0]), int64(op[1])
			if lo > hi {
				lo, hi = hi, lo
			}
			rs.add(lo, hi)
			c := rs.covered()
			if c < prev || c > 1<<17 {
				return false
			}
			prev = c
		}
		// Invariant: islands sorted, non-overlapping, non-adjacent, and
		// all beyond the prefix.
		prev = rs.next
		for _, r := range rs.islands {
			if r.lo <= prev || r.hi <= r.lo {
				return false
			}
			prev = r.hi
		}
		return true
	}
	if err := quick.Check(f, quicktest.Config(t, 300)); err != nil {
		t.Fatal(err)
	}
}

// refRangeSet is the sorted-slice range set the prefix-and-islands rangeSet
// replaced: every range in one slice, in-order data included.
type refRangeSet struct {
	ranges []byteRange
}

func (rs *refRangeSet) add(lo, hi int64) {
	if lo >= hi {
		return
	}
	i := 0
	for i < len(rs.ranges) && rs.ranges[i].hi < lo {
		i++
	}
	j := i
	for j < len(rs.ranges) && rs.ranges[j].lo <= hi {
		lo = min(lo, rs.ranges[j].lo)
		hi = max(hi, rs.ranges[j].hi)
		j++
	}
	if i == j {
		rs.ranges = append(rs.ranges, byteRange{})
		copy(rs.ranges[i+1:], rs.ranges[i:])
		rs.ranges[i] = byteRange{lo, hi}
		return
	}
	rs.ranges[i] = byteRange{lo, hi}
	rs.ranges = append(rs.ranges[:i+1], rs.ranges[j:]...)
}

func (rs *refRangeSet) contiguousFrom(from int64) int64 {
	for _, r := range rs.ranges {
		if r.lo > from {
			return from
		}
		if r.hi > from {
			return r.hi
		}
	}
	return from
}

func (rs *refRangeSet) covered() int64 {
	var n int64
	for _, r := range rs.ranges {
		n += r.hi - r.lo
	}
	return n
}

// Property: rangeSet agrees with the reference after every step of a random
// receive sequence — MSS segments out of order, retransmitted duplicates,
// odd-sized and overlapping spans, and FluidDeliver-style credits that
// extend the contiguous prefix — on covered and on contiguousFrom at the
// prefix and at arbitrary offsets.
func TestQuickRangeSetMatchesReference(t *testing.T) {
	f := func(seed int64, nSegs uint8) bool {
		r := rand.New(rand.NewSource(seed))
		const mss = 1460
		n := int64(nSegs%80) + 1
		var rs rangeSet
		var ref refRangeSet
		var nxt int64 // the receiver's rcvNxt, advanced as OnData does
		for step := 0; step < 3*int(n); step++ {
			var lo, hi int64
			switch r.Intn(4) {
			case 0, 1: // a segment, in order or not, possibly a duplicate
				s := r.Int63n(n)
				lo, hi = s*mss, (s+1)*mss
			case 2: // an arbitrary span
				lo = r.Int63n(n * mss)
				hi = lo + r.Int63n(3*mss)
			case 3: // a fluid credit from the contiguous prefix
				lo = nxt
				hi = lo + r.Int63n(4*mss)
			}
			rs.add(lo, hi)
			ref.add(lo, hi)
			nxt = rs.contiguousFrom(nxt)
			if rs.covered() != ref.covered() || nxt != ref.contiguousFrom(nxt) {
				t.Logf("step %d add [%d,%d): covered %d/%d, rcvNxt %d/%d",
					step, lo, hi, rs.covered(), ref.covered(), nxt, ref.contiguousFrom(nxt))
				return false
			}
			for k := 0; k < 4; k++ {
				from := r.Int63n(n*mss + 1)
				if got, want := rs.contiguousFrom(from), ref.contiguousFrom(from); got != want {
					t.Logf("step %d: contiguousFrom(%d) = %d, reference %d", step, from, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quicktest.Config(t, 300)); err != nil {
		t.Fatal(err)
	}
}

// In-order data, and the first gap after it, cost nothing beyond the
// island slice's first four slots.
func TestRangeSetInOrderDoesNotAllocate(t *testing.T) {
	const mss = 1460
	if a := testing.AllocsPerRun(20, func() {
		var rs rangeSet
		for s := int64(0); s < 100; s++ {
			rs.add(s*mss, (s+1)*mss)
		}
	}); a != 0 {
		t.Fatalf("%.0f allocations for 100 in-order segments, want 0", a)
	}
	if a := testing.AllocsPerRun(20, func() {
		var rs rangeSet
		rs.add(0, mss)
		for s := int64(2); s < 10; s += 2 {
			rs.add(s*mss, (s+1)*mss) // four islands
		}
		for s := int64(1); s < 10; s += 2 {
			rs.add(s*mss, (s+1)*mss) // each fill absorbs one
		}
		if rs.contiguousFrom(0) != 10*mss {
			panic("holes left")
		}
	}); a > 1 {
		t.Fatalf("%.0f allocations for four islands, want at most 1", a)
	}
}
