package fluid

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
)

// solver is the dense, index-addressed state of progressive filling. Links
// are numbered by their position in Engine.active and flows by their
// position in Engine.flows (ID order); index rebuilds the numbering only
// when the active set changes, so a steady-state tick reads no *Link
// inside its rounds and allocates nothing.
type solver struct {
	links []linkState
	// flows[first[i]:first[i+1]] lists the flows crossing link i, in ID
	// order.
	first []int32
	flows []int32

	// Per flow: path[pstart[j]:pstart[j+1]] is flow j's path as link
	// indices; bneck[j] is its sticky standing-charge site, a link on that
	// path or -1.
	pstart []int32
	path   []int32
	bneck  []int32
	frozen []bool

	// The round minimum. byShare holds every active link ordered by its
	// share at the start of the tick; the order is carried from tick to
	// tick, where an insertion sort repairs it in about one pass. A link
	// whose share changes during the tick and that still has unfrozen
	// flows moves into heap, a binary min-heap keyed by its current share;
	// its byShare entry is skipped from then on, as is the entry of a link
	// with no unfrozen flows left. Every entry before head is one of
	// those, so the round minimum is the smaller of the first live entry
	// at or after head and the heap's top.
	byShare []keyed
	head    int
	heap    []int32 // link indices
	dirty   []int32 // links to move into the heap before the next round
	stack   []int32 // heap search scratch

	// cand is the round's candidate flows as a bitset over flow indices,
	// so that they come out in ID order; only words lo..hi can be nonzero.
	cand   []uint64
	lo, hi int
}

// linkState is the solver's view of one active link, kept in one record
// because a frozen flow touches most of it on each of its path links.
type linkState struct {
	avail      float64 // residual capacity not yet allocated
	share      float64 // avail/unfrozen, kept current; +Inf once unfrozen is 0
	fluidBps   float64 // sum of allocated fluid rates
	availCap   float64 // residual capacity at the start of the solve
	unfrozen   int32   // flows not yet frozen on the link
	nflows     int32   // flows crossing the link
	hpos       int32   // position in heap, -1 when not in it
	bottleneck bool    // some flow's rate was frozen first at the link
	moving     bool    // queued in dirty
}

// keyed is a link with its share at the start of the tick.
type keyed struct {
	share float64
	link  int32
}

// index renumbers links and flows after the active set changed. Every link
// of an active flow's path is active, so Link.idx is valid on all of them.
func (s *solver) index(active []*Link, flows []*Flow) {
	nl := len(active)
	s.links = resize(s.links, nl)
	clear(s.links)
	s.pstart = append(s.pstart[:0], 0)
	s.path = s.path[:0]
	s.bneck = s.bneck[:0]
	for _, f := range flows {
		b := int32(-1)
		for _, l := range f.Path {
			s.path = append(s.path, l.idx)
			s.links[l.idx].nflows++
			if l == f.bneck {
				b = l.idx
			}
		}
		s.pstart = append(s.pstart, int32(len(s.path)))
		s.bneck = append(s.bneck, b)
	}
	s.frozen = resize(s.frozen, len(flows))

	// Per-link flow lists by counting sort: filling in flow order keeps
	// each list in ID order. first[i+1] starts as link i's offset and is
	// advanced to its end.
	s.first = resize(s.first, nl+1)
	s.first[0] = 0
	var off int32
	for i := range s.links {
		s.first[i+1] = off
		off += s.links[i].nflows
	}
	s.flows = resize(s.flows, len(s.path))
	for j := range flows {
		for _, l := range s.path[s.pstart[j]:s.pstart[j+1]] {
			s.flows[s.first[l+1]] = int32(j)
			s.first[l+1]++
		}
	}

	s.byShare = resize(s.byShare, nl)
	for i := range s.byShare {
		s.byShare[i].link = int32(i)
	}
	s.cand = resize(s.cand, (len(flows)+63)/64)
	clear(s.cand)
}

// resize returns a slice of length n, reusing buf's storage when it fits.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// solve computes the max-min fair-share allocation (progressive filling)
// of every flow over the residual capacity of its path. Fluid flows are
// greedy — a demoted flow is by construction in its bandwidth-limited
// steady state, so its rate is whatever fair share the topology yields,
// exactly as a long DCTCP flow's would be.
//
// Each round freezes every unfrozen flow crossing a bottleneck — a link
// whose share is within rateEps of the round minimum — at that minimum,
// visiting the flows in ID order. The result is bit-identical to a solver
// that rescans every link for the minimum and every flow for the
// bottleneck test in each round; this one reads the minimum off byShare
// and the heap, and visits only the flows on the links that are
// candidates at the start of the round (share ≤ min·(1+rateEps)).
// Skipping the rest is exact because a link that is not a candidate when
// the round starts cannot become one during it. Its share is
// s = a/u > min·(1+rateEps); freezing one of its flows at min makes it
// (a−min)/(u−1) = s + (s−min)/(u−1), which never decreases, and the gap
// it would have to close is at least rateEps·min/(u−1) — about 10⁴ times
// the few ulps of rounding in the subtraction and division. A candidate
// link's share can rise above the threshold mid-round, so each visited
// flow still takes the exact test against the current shares.
//
// A tick costs one pass over the links and one over the flows, and, per
// later round, the candidate links' flow lists and the frozen flows'
// paths, with a heap update for each changed link that keeps unfrozen
// flows: work in proportion to the flows that freeze, not to rounds ×
// (links + flows × path length).
func (e *Engine) solve() {
	s := &e.s
	s.heap = s.heap[:0]
	s.dirty = s.dirty[:0]
	s.head = 0
	clear(s.frozen)
	for _, f := range e.flows {
		f.rateBps = 0
	}
	inf := math.Inf(1)
	first := inf
	for i, l := range e.active {
		avail := float64(l.CapBps) - l.pktBps
		if floor := minResidualFrac * float64(l.CapBps); avail < floor {
			avail = floor
		}
		ls := &s.links[i]
		ls.avail, ls.availCap, ls.fluidBps = avail, avail, 0
		ls.share = avail / float64(ls.nflows)
		ls.unfrozen, ls.hpos = ls.nflows, -1
		ls.bottleneck, ls.moving = false, false
		if ls.share < first {
			first = ls.share
		}
	}

	remaining := len(e.flows)
	for round := 0; remaining > 0; round++ {
		// The first round's minimum falls out of the pass above, and it
		// visits every flow: one that crosses no candidate link fails the
		// freeze test below, as in a rescan. A tick that ends there
		// (every share tied) never pays for byShare.
		min := first
		if round > 0 {
			if round == 1 {
				s.order()
			}
			s.file()
			min = s.roundMin()
		}
		at := min * (1 + rateEps)
		stick := min * (1 + stickFrac)
		if round == 0 {
			s.everyFlow(len(e.flows))
		} else {
			s.candidates(at)
		}
		progressed := false
		for w := s.lo; w <= s.hi; w++ {
			word := s.cand[w]
			s.cand[w] = 0
			for ; word != 0; word &= word - 1 {
				j := int32(w<<6 | bits.TrailingZeros64(word))
				path := s.path[s.pstart[j]:s.pstart[j+1]]
				// The flow freezes at the first path link whose share is
				// within tolerance of the minimum. That link is where the
				// flow's standing queue physically sits: downstream links
				// see only the already-limited rate and keep (near-)empty
				// queues, so the fold must not charge standing occupancy
				// there. The choice is sticky: once a flow has a
				// bottleneck, it keeps it while that link's share stays
				// within stickFrac of the minimum. Without hysteresis,
				// packet-load measurement noise flaps the argmin between a
				// path's near-equal links tick to tick, smearing the
				// standing charge over links whose real queues would be
				// empty (a real flow's queue stays planted at one
				// contention point).
				site := int32(-1)
				for _, l := range path {
					if s.links[l].share <= at {
						site = l
						break
					}
				}
				if site < 0 {
					continue
				}
				if b := s.bneck[j]; b >= 0 && b != site && s.links[b].share <= stick {
					site = b
				}
				f := e.flows[j]
				f.bneck = e.active[site]
				f.rateBps = min
				s.bneck[j] = site
				s.links[site].bottleneck = true
				s.frozen[j] = true
				remaining--
				progressed = true
				// Take the flow off each path link. A link in the heap is
				// re-keyed on the spot (a binary heap restores its order
				// after one changed key at a time); a byShare link that
				// keeps unfrozen flows moves to the heap before the next
				// round.
				for _, l := range path {
					ls := &s.links[l]
					ls.avail -= min
					if ls.avail < 0 {
						ls.avail = 0
					}
					ls.fluidBps += min
					ls.unfrozen--
					if ls.unfrozen == 0 {
						ls.share = inf
						if ls.hpos >= 0 {
							s.heapRemove(ls.hpos)
						}
						continue
					}
					ls.share = ls.avail / float64(ls.unfrozen)
					if ls.hpos >= 0 {
						s.heapFix(ls.hpos)
					} else if !ls.moving {
						ls.moving = true
						s.dirty = append(s.dirty, l)
					}
				}
			}
		}
		if !progressed {
			break // float pathology guard; unreachable for sane inputs
		}
	}
}

// everyFlow marks every flow in cand.
func (s *solver) everyFlow(n int) {
	for w := range s.cand {
		s.cand[w] = ^uint64(0)
	}
	if r := n & 63; r != 0 {
		s.cand[len(s.cand)-1] = 1<<r - 1
	}
	s.lo, s.hi = 0, len(s.cand)-1
}

// order sorts byShare by the shares at the start of the tick. The previous
// tick's order is usually off by a few entries, which an insertion sort
// repairs in about one pass; an order that is far off (the first tick after
// a rebuild) is sorted outright.
func (s *solver) order() {
	e := s.byShare
	for k := range e {
		ls := &s.links[e[k].link]
		if ls.unfrozen == ls.nflows {
			e[k].share = ls.share
		} else {
			e[k].share = ls.availCap / float64(ls.nflows)
		}
	}
	budget := 4 * len(e)
	for i := 1; i < len(e); i++ {
		x := e[i]
		j := i
		for ; j > 0 && x.share < e[j-1].share; j-- {
			e[j] = e[j-1]
		}
		e[j] = x
		if budget -= i - j; budget < 0 {
			slices.SortFunc(e, func(a, b keyed) int { return cmp.Compare(a.share, b.share) })
			return
		}
	}
}

// file moves the links queued by the last round into the heap.
func (s *solver) file() {
	for _, l := range s.dirty {
		s.links[l].moving = false
		if s.links[l].unfrozen > 0 {
			s.heapPush(l)
		}
	}
	s.dirty = s.dirty[:0]
}

// live reports whether link l's byShare entry still holds its share: the
// link has unfrozen flows and has not moved to the heap.
func (s *solver) live(l int32) bool { return s.links[l].unfrozen > 0 && s.links[l].hpos < 0 }

// roundMin returns the smallest share over the links with unfrozen flows.
func (s *solver) roundMin() float64 {
	for s.head < len(s.byShare) && !s.live(s.byShare[s.head].link) {
		s.head++
	}
	min := math.Inf(1)
	if s.head < len(s.byShare) {
		min = s.byShare[s.head].share
	}
	if len(s.heap) > 0 && s.links[s.heap[0]].share < min {
		min = s.links[s.heap[0]].share
	}
	return min
}

// candidates marks in cand the unfrozen flows crossing a link whose share
// is at most at.
func (s *solver) candidates(at float64) {
	s.lo, s.hi = len(s.cand), -1
	for _, k := range s.byShare[s.head:] {
		if k.share > at {
			break
		}
		if s.live(k.link) {
			s.mark(k.link)
		}
	}
	stack := append(s.stack[:0], 0)
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if int(i) >= len(s.heap) || s.links[s.heap[i]].share > at {
			continue
		}
		s.mark(s.heap[i])
		stack = append(stack, 2*i+1, 2*i+2)
	}
	s.stack = stack
}

// mark adds link l's unfrozen flows to cand.
func (s *solver) mark(l int32) {
	flows := s.flows[s.first[l]:s.first[l+1]]
	for _, j := range flows {
		if !s.frozen[j] {
			s.cand[j>>6] |= 1 << (j & 63)
		}
	}
	s.lo = min(s.lo, int(flows[0]>>6))
	s.hi = max(s.hi, int(flows[len(flows)-1]>>6))
}

// The heap is keyed by links[l].share; links[l].hpos tracks each entry.

func (s *solver) heapPush(l int32) {
	s.links[l].hpos = int32(len(s.heap))
	s.heap = append(s.heap, l)
	s.heapUp(s.links[l].hpos)
}

// heapRemove takes the entry at position i out of the heap.
func (s *solver) heapRemove(i int32) {
	last := int32(len(s.heap) - 1)
	s.links[s.heap[i]].hpos = -1
	if i != last {
		s.heap[i] = s.heap[last]
		s.links[s.heap[i]].hpos = i
	}
	s.heap = s.heap[:last]
	if i != last {
		s.heapFix(i)
	}
}

// heapFix restores the heap order around position i after its key changed.
func (s *solver) heapFix(i int32) {
	if !s.heapDown(i) {
		s.heapUp(i)
	}
}

func (s *solver) heapLess(i, j int32) bool {
	return s.links[s.heap[i]].share < s.links[s.heap[j]].share
}

func (s *solver) heapSwap(i, j int32) {
	h := s.heap
	h[i], h[j] = h[j], h[i]
	s.links[h[i]].hpos, s.links[h[j]].hpos = i, j
}

func (s *solver) heapUp(i int32) {
	for i > 0 {
		p := (i - 1) / 2
		if !s.heapLess(i, p) {
			return
		}
		s.heapSwap(i, p)
		i = p
	}
}

// heapDown sifts position i down and reports whether it moved.
func (s *solver) heapDown(i int32) bool {
	start, n := i, int32(len(s.heap))
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && s.heapLess(r, c) {
			c = r
		}
		if !s.heapLess(c, i) {
			break
		}
		s.heapSwap(i, c)
		i = c
	}
	return i != start
}
