package eventq

import "math/bits"

// Hierarchical timing wheel (Varghese & Lauck scheme 6/7, as in the classic
// Linux timer wheel): four cascading levels of 256 slots over a ~1µs tick.
//
// Geometry. A tick is 1<<tickShift ns = 1024ns. Level L buckets ticks at
// granularity 256^L, so the wheel spans 256^4 = 2^32 ticks (~73 virtual
// minutes) before falling back to a sorted spill list — in practice only
// MaxTime-style "never" timers land there.
//
// Residency invariant. Every resident event lives in the *remainder of the
// current window* of its level: an event with tick t is in level L iff
// t < (cur &^ (span(L)-1)) + span(L) for span(L) = 256^(L+1) and no lower
// level satisfies that. Consequently, within each level all occupied slot
// indices are >= the cursor's index at that level (strictly > for L >= 1),
// so advancing the cursor is a forward bitmap scan — never a wrap — and the
// slot under the cursor at levels >= 1 is always empty. When the cursor
// crosses a level boundary, that level's next slot cascades: its events
// reinsert, landing at strictly lower levels, which makes reusing the
// slot's backing array safe.
//
// Determinism. The global firing order is the (at, pri, seq) total order of
// less. Slot lists are append-ordered and cascades can interleave older-seq
// events behind newer direct inserts, so the live tick's sub-buckets are
// each sorted (insertion sort, usually a no-op verify pass) once, when the
// drain reaches them. Draining then walks the sub-bucket linearly — the Run
// loop fires a whole tick's batch without re-consulting the wheel — and a
// callback scheduling into the live tick binary-inserts behind the drain
// cursor, preserving FIFO within the instant.
type wheel struct {
	// cur is the wheel cursor in ticks. Events never reside at ticks
	// behind it; inserts that would (only possible after a run advanced
	// cur over tombstone-only slots) clamp their tick to cur, which
	// preserves the (at, pri, seq) firing order because every other resident
	// event's at is >= cur<<tickShift.
	cur   int64
	slots [numLevels][wheelSlots][]*event
	// occ mirrors slot occupancy: bit i of level L is set iff
	// slots[L][i] is non-empty (tombstones count as occupancy until
	// reclaimed). Lets the cursor skip empty regions 64 slots at a time.
	occ [numLevels][wheelSlots / 64]uint64
	// spill holds events beyond the wheel horizon, sorted by (at, pri, seq).
	spill      []*event
	spillTombs int
	// slotArena is the tail of the current slot-storage block: first-touch
	// slot slices carve their initial capacity from it in bulk, so warming
	// up a wheel costs one allocation per slotArenaSlots touched slots
	// rather than one per slot. A slot outgrowing slotInitCap falls back to
	// ordinary append growth.
	slotArena []*event
	// Drain state. The live tick is split calendar-queue style into
	// subCount sub-buckets of (1<<subShift) ns each: startDrain distributes
	// the armed slot's events by sub-tick address, and each sub-bucket is
	// compacted and sorted only when the drain reaches it (subArmed). This
	// keeps the sub-tick churn worst case — callbacks rescheduling into the
	// live tick — an O(1) append into a later sub-bucket instead of an
	// O(slot) memmove into one big sorted list. When draining, level-0 slot
	// slotIdx is distributed, sub-buckets [0:curSub) are exhausted, and
	// events [0:di) of sub-bucket curSub have been fired or reclaimed.
	draining bool
	slotIdx  int
	curSub   int
	subArmed bool
	di       int
	subs     [subCount][]*event
}

const (
	tickShift  = 10 // 1 tick = 1024 ns, ~1 µs
	levelBits  = 8
	wheelSlots = 1 << levelBits
	numLevels  = 4

	// Live-tick calendar split: 8 sub-buckets of 128 ns.
	subBits  = 3
	subCount = 1 << subBits
	subShift = tickShift - subBits
	subMask  = subCount - 1

	// First-touch slot storage: each untouched slot starts with capacity
	// slotInitCap carved from an arena block covering slotArenaSlots slots
	// (8 KB per block).
	slotInitCap    = 16
	slotArenaSlots = 64
)

// span returns the number of ticks one slot of the given level covers times
// wheelSlots, i.e. the full horizon of that level.
func span(level int) int64 { return 1 << uint(levelBits*(level+1)) }

// occNext returns the lowest set bit index >= from in a 256-bit occupancy
// map, or -1 if none.
func occNext(m *[wheelSlots / 64]uint64, from int) int {
	if from >= wheelSlots {
		return -1
	}
	w := from >> 6
	b := m[w] &^ (1<<uint(from&63) - 1)
	for {
		if b != 0 {
			return w<<6 + bits.TrailingZeros64(b)
		}
		w++
		if w == len(m) {
			return -1
		}
		b = m[w]
	}
}

// wheelInsert routes a freshly allocated event into the wheel. Called only
// from At, so ev.at >= s.now.
func (s *Scheduler) wheelInsert(ev *event) {
	w := &s.w
	tick := int64(ev.at) >> tickShift
	if tick < w.cur {
		// See the cur field comment: order-preserving clamp.
		tick = w.cur
	}
	if w.draining && tick == w.cur {
		w.drainInsert(ev)
		return
	}
	w.put(ev, tick)
}

// put places ev (at the given tick, >= w.cur) into its level slot or the
// spill list.
func (w *wheel) put(ev *event, tick int64) {
	c := w.cur
	var level int
	var idx int
	switch {
	case tick < (c&^(span(0)-1))+span(0):
		level, idx = 0, int(tick&(wheelSlots-1))
	case tick < (c&^(span(1)-1))+span(1):
		level, idx = 1, int((tick>>levelBits)&(wheelSlots-1))
	case tick < (c&^(span(2)-1))+span(2):
		level, idx = 2, int((tick>>(2*levelBits))&(wheelSlots-1))
	case tick < (c&^(span(3)-1))+span(3):
		level, idx = 3, int((tick>>(3*levelBits))&(wheelSlots-1))
	default:
		w.spillInsert(ev)
		return
	}
	lst := w.slots[level][idx]
	if cap(lst) == 0 {
		// Skip the 1-2-4 growth steps: with ~1µs ticks a live slot
		// typically collects a handful of events before draining. The
		// initial capacity is carved from a shared arena block, amortizing
		// the first-touch cost across slotArenaSlots slots.
		if len(w.slotArena) < slotInitCap {
			w.slotArena = make([]*event, slotArenaSlots*slotInitCap)
		}
		lst = w.slotArena[:0:slotInitCap]
		w.slotArena = w.slotArena[slotInitCap:]
	}
	w.slots[level][idx] = append(lst, ev)
	w.occ[level][idx>>6] |= 1 << uint(idx&63)
	ev.where = inWheel
}

// spillInsert binary-inserts ev into the sorted overflow list.
func (w *wheel) spillInsert(ev *event) {
	lo, hi := 0, len(w.spill)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if less(ev, w.spill[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	w.spill = append(w.spill, nil)
	copy(w.spill[lo+1:], w.spill[lo:])
	w.spill[lo] = ev
	ev.where = inSpill
}

// drainInsert places ev into the live tick currently being drained. An
// event addressed to a later sub-bucket is a plain append — armSub sorts
// that bucket when the drain reaches it. An event addressed to the current
// (or, after a mid-drain RunUntil moved the clock backwards relative to the
// pending tail, an earlier) sub-bucket binary-inserts into the current
// bucket at its (at, pri, seq) position behind the drain cursor: since
// ev.at >= s.now, the position is always >= di, so the event fires in this
// same drain pass, after every earlier same-instant event — the
// FIFO-within-instant guarantee. The clamp into curSub preserves global
// order because every event in a later sub-bucket has a strictly larger
// sub-tick address, hence a strictly larger at.
func (w *wheel) drainInsert(ev *event) {
	j := int(int64(ev.at)>>subShift) & subMask
	if j > w.curSub {
		lst := w.subs[j]
		if cap(lst) == 0 {
			lst = make([]*event, 0, 16)
		}
		w.subs[j] = append(lst, ev)
		ev.where = inWheel
		return
	}
	sub := w.subs[w.curSub]
	if w.di > 32 && w.di*2 >= len(sub) {
		// Trim the fired prefix so a workload that keeps scheduling into
		// the live sub-bucket cannot grow it without bound. Amortized O(1):
		// each trimmed entry was one fired event.
		n := copy(sub, sub[w.di:])
		sub = sub[:n]
		w.subs[w.curSub] = sub
		w.di = 0
	}
	lo, hi := w.di, len(sub)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if less(ev, sub[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	sub = append(sub, nil)
	copy(sub[lo+1:], sub[lo:])
	sub[lo] = ev
	w.subs[w.curSub] = sub
	ev.where = inWheel
}

// startDrain distributes level-0 slot idx into the live-tick sub-buckets,
// releasing tombstones along the way, and arms the drain state. Returns
// false if the slot held only tombstones (it is emptied and its occupancy
// bit cleared). Sorting is deferred per sub-bucket to armSub.
func (s *Scheduler) startDrain(idx int) bool {
	w := &s.w
	slot := w.slots[0][idx]
	live := 0
	for _, ev := range slot {
		if ev.canceled {
			s.release(ev)
			continue
		}
		j := int(int64(ev.at)>>subShift) & subMask
		lst := w.subs[j]
		if cap(lst) == 0 {
			lst = make([]*event, 0, 16)
		}
		w.subs[j] = append(lst, ev)
		live++
	}
	// Stale pointers beyond len are left in place: every node is owned by
	// the scheduler for its whole lifetime (freelist discipline), so they
	// pin nothing the freelist does not already keep alive.
	w.slots[0][idx] = slot[:0]
	if live == 0 {
		w.occ[0][idx>>6] &^= 1 << uint(idx&63)
		return false
	}
	w.draining = true
	w.slotIdx = idx
	w.curSub = 0
	w.subArmed = false
	w.di = 0
	return true
}

// armSub compacts tombstones out of sub-bucket j and sorts it by
// (at, pri, seq) if distribution or cascading left it out of order — it is
// already ordered unless a cascade appended older-seq events behind direct
// inserts. Slots are small and nearly sorted; insertion sort avoids the
// closure allocation of sort.Slice.
func (s *Scheduler) armSub(j int) {
	w := &s.w
	lst := w.subs[j]
	live := lst[:0]
	sorted := true
	for _, ev := range lst {
		if ev.canceled {
			s.release(ev)
			continue
		}
		if n := len(live); n > 0 && less(ev, live[n-1]) {
			sorted = false
		}
		live = append(live, ev)
	}
	lst = live
	w.subs[j] = lst
	if !sorted {
		for i := 1; i < len(lst); i++ {
			ev := lst[i]
			k := i - 1
			for k >= 0 && less(ev, lst[k]) {
				lst[k+1] = lst[k]
				k--
			}
			lst[k+1] = ev
		}
	}
	w.di = 0
	w.subArmed = true
}

// runWheel drains events at or before limit until none remain or Stop is
// called. Each armed slot is fired as a batch — one tick's events run
// without re-consulting the wheel levels in between. Drain state survives
// across calls, so a RunUntil that stops mid-slot resumes exactly where it
// left off.
func (s *Scheduler) runWheel(limit Time) {
	w := &s.w
	for {
		if !w.draining {
			if !s.wheelRefill(limit) {
				return
			}
		}
		for w.curSub < subCount {
			if !w.subArmed {
				s.armSub(w.curSub)
			}
			// The sub-bucket and drain cursor live in locals; only a firing
			// callback can move them (drainInsert appends, regrows, or
			// compacts), so they are published before each fn() and
			// reloaded after — not re-read per event.
			sub := w.subs[w.curSub]
			di := w.di
			for {
				if di >= len(sub) {
					w.subs[w.curSub] = sub[:0]
					w.subArmed = false
					w.curSub++
					w.di = 0
					break
				}
				ev := sub[di]
				if ev.at > limit {
					w.di = di
					return
				}
				di++
				if ev.canceled {
					s.release(ev)
					continue
				}
				at, pri, seq, fn := ev.at, ev.pri, ev.seq, ev.fn
				// Recycle before running: fn may schedule and the node can
				// serve the new event immediately; the old handle's gen is
				// already stale.
				s.release(ev)
				s.now, s.curPri, s.curSeq = at, pri, seq
				s.executed++
				w.di = di
				fn()
				if s.stopped {
					return
				}
				di = w.di
				sub = w.subs[w.curSub]
			}
		}
		w.occ[0][w.slotIdx>>6] &^= 1 << uint(w.slotIdx&63)
		w.draining = false
		w.curSub = 0
		w.di = 0
	}
}

// wheelRefill advances the cursor to the next occupied tick <= limit,
// cascading level boundaries as it crosses them, and arms a drain. Returns
// false when every pending event is beyond limit (the cursor is never
// advanced past limit's tick, so later inserts at >= limit still land ahead
// of it).
func (s *Scheduler) wheelRefill(limit Time) bool {
	w := &s.w
	tickLimit := int64(limit) >> tickShift
	for {
		if idx := occNext(&w.occ[0], int(w.cur&(wheelSlots-1))); idx >= 0 {
			tick := (w.cur &^ (wheelSlots - 1)) | int64(idx)
			if tick > tickLimit {
				return false
			}
			w.cur = tick
			if s.startDrain(idx) {
				return true
			}
			continue
		}
		c1 := int((w.cur >> levelBits) & (wheelSlots - 1))
		if idx := occNext(&w.occ[1], c1+1); idx >= 0 {
			b := (w.cur &^ (span(1) - 1)) | int64(idx)<<levelBits
			if b > tickLimit {
				return false
			}
			w.cur = b
			s.cascade(1, idx)
			continue
		}
		c2 := int((w.cur >> (2 * levelBits)) & (wheelSlots - 1))
		if idx := occNext(&w.occ[2], c2+1); idx >= 0 {
			b := (w.cur &^ (span(2) - 1)) | int64(idx)<<(2*levelBits)
			if b > tickLimit {
				return false
			}
			w.cur = b
			s.cascade(2, idx)
			continue
		}
		c3 := int((w.cur >> (3 * levelBits)) & (wheelSlots - 1))
		if idx := occNext(&w.occ[3], c3+1); idx >= 0 {
			b := (w.cur &^ (span(3) - 1)) | int64(idx)<<(3*levelBits)
			if b > tickLimit {
				return false
			}
			w.cur = b
			s.cascade(3, idx)
			continue
		}
		// Wheel empty: the residency invariant means no occupied slot can
		// sit behind any level's cursor, so only the spill remains.
		if w.spillTombs > 0 {
			s.spillSweep()
		}
		if len(w.spill) == 0 {
			return false
		}
		head := w.spill[0]
		htick := int64(head.at) >> tickShift
		if htick > tickLimit {
			return false
		}
		w.cur = htick
		s.migrateSpill()
	}
}

// cascade empties slot idx of the given level, reinserting its live events
// relative to the new cursor. Every reinsertion lands at a strictly lower
// level (the slot covers span(level-1) ticks starting at the new cursor),
// so reusing the emptied slot's backing array is safe.
func (s *Scheduler) cascade(level, idx int) {
	w := &s.w
	slot := w.slots[level][idx]
	w.slots[level][idx] = slot[:0]
	w.occ[level][idx>>6] &^= 1 << uint(idx&63)
	for _, ev := range slot {
		if ev.canceled {
			s.release(ev)
			continue
		}
		w.put(ev, int64(ev.at)>>tickShift)
	}
}

// migrateSpill moves the sorted prefix of the spill list that now fits
// inside the wheel horizon into the wheel. Called with the cursor on the
// spill head's tick, so the prefix is non-empty unless it was all
// tombstones.
func (s *Scheduler) migrateSpill() {
	w := &s.w
	horizon := (w.cur &^ (span(3) - 1)) + span(3)
	n := 0
	for n < len(w.spill) && int64(w.spill[n].at)>>tickShift < horizon {
		n++
	}
	for i := 0; i < n; i++ {
		ev := w.spill[i]
		if ev.canceled {
			s.release(ev)
			w.spillTombs--
			continue
		}
		w.put(ev, int64(ev.at)>>tickShift)
	}
	m := copy(w.spill, w.spill[n:])
	for i := m; i < len(w.spill); i++ {
		w.spill[i] = nil
	}
	w.spill = w.spill[:m]
}

// spillSweep compacts canceled events out of the spill list.
func (s *Scheduler) spillSweep() {
	w := &s.w
	live := w.spill[:0]
	for _, ev := range w.spill {
		if ev.canceled {
			s.release(ev)
		} else {
			live = append(live, ev)
		}
	}
	for i := len(live); i < len(w.spill); i++ {
		w.spill[i] = nil
	}
	w.spill = live
	w.spillTombs = 0
}
