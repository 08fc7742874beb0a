package transport

// rangeSet tracks received byte ranges of a flow, merging overlaps so
// out-of-order and duplicate segments (both common under DIBS detouring and
// go-back-N retransmission) are handled correctly. Offsets are
// non-negative: a flow's bytes start at 0.
//
// The set is a contiguous prefix [0, next) plus the out-of-order islands
// beyond it. In-order data only moves next, so a flow whose segments
// arrive in order never allocates; the first island gets room for four.
type rangeSet struct {
	next int64
	// islands is sorted by lo and kept non-overlapping and non-adjacent,
	// every island starting above next.
	islands []byteRange
}

type byteRange struct{ lo, hi int64 }

// add records receipt of [lo, hi).
func (rs *rangeSet) add(lo, hi int64) {
	if lo >= hi || hi <= rs.next {
		return
	}
	if lo <= rs.next {
		// Extend the prefix and absorb every island it now reaches.
		rs.next = hi
		k := 0
		for k < len(rs.islands) && rs.islands[k].lo <= rs.next {
			rs.next = max(rs.next, rs.islands[k].hi)
			k++
		}
		if k > 0 {
			rs.islands = rs.islands[:copy(rs.islands, rs.islands[k:])]
		}
		return
	}
	// Find insertion window: all islands overlapping or adjacent to [lo,hi).
	i := 0
	for i < len(rs.islands) && rs.islands[i].hi < lo {
		i++
	}
	j := i
	for j < len(rs.islands) && rs.islands[j].lo <= hi {
		lo = min(lo, rs.islands[j].lo)
		hi = max(hi, rs.islands[j].hi)
		j++
	}
	// Splice [i,j) down to the single merged island in place; a pure
	// insert (i == j) allocates only when the slice needs to grow.
	if i == j {
		if rs.islands == nil {
			rs.islands = make([]byteRange, 0, 4)
		}
		rs.islands = append(rs.islands, byteRange{})
		copy(rs.islands[i+1:], rs.islands[i:])
		rs.islands[i] = byteRange{lo, hi}
		return
	}
	rs.islands[i] = byteRange{lo, hi}
	rs.islands = append(rs.islands[:i+1], rs.islands[j:]...)
}

// contiguousFrom returns the highest offset h such that [from, h) is fully
// received; returns from when the first byte is missing.
func (rs *rangeSet) contiguousFrom(from int64) int64 {
	if from <= rs.next {
		return rs.next
	}
	for _, r := range rs.islands {
		if r.lo > from {
			return from
		}
		if r.hi > from {
			return r.hi
		}
	}
	return from
}

// covered returns the total number of bytes recorded.
func (rs *rangeSet) covered() int64 {
	n := rs.next
	for _, r := range rs.islands {
		n += r.hi - r.lo
	}
	return n
}
