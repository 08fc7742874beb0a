// Package pdes drives conservative (lookahead-synchronized) parallel
// discrete-event simulation over sharded schedulers.
//
// The model is the classic null-message-free conservative scheme
// specialized to a network simulation whose only cross-shard interactions
// are link traversals with a known minimum propagation delay L (the
// lookahead): if every shard has executed all events up to time B-1, then
// any message a shard emits while executing the window [B, B+L-1] carries
// an arrival timestamp >= B+L — strictly beyond the window. So all shards
// may execute one lookahead-wide window in parallel with no communication
// at all, exchange the messages that serialization produced at a barrier,
// and repeat. No null messages, no deadlock avoidance protocol: the window
// IS the lookahead.
//
// Determinism does not depend on the barrier schedule. Messages are
// injected into their destination shard in a globally sorted
// (time, link key, source sequence) order, and the schedulers themselves
// execute by (time, pri, seq); since link keys are unique per directed
// link and same-link messages arrive pre-ordered by source sequence, the
// executed event order of every shard is a pure function of the simulation
// state — not of shard count, worker count, batching, or goroutine
// interleaving. That is what the cross-shard-count determinism test pins.
//
// A window costs what its slowest worker costs. W = min(shards,
// GOMAXPROCS) workers share the shards by stride; the caller's goroutine
// is worker 0, so one proc means no goroutine at all. Workers meet at an
// epoch barrier on sync/atomic (see gate) that spins briefly and then
// parks: a window is microseconds of work, and a channel round-trip per
// shard per window cost more in wake-up latency than the window itself.
//
// This package is the one place below the run boundary where goroutines
// are allowed (internal/runner is the one above it). Run's callback
// contract is the whole isolation argument — runWindow(i, ...) is called
// on exactly one worker per window, flush and inject only on the
// coordinator between windows, and the gate epochs are the only
// happens-before edges. Nothing static checks what
// the callbacks capture; the proof is at runtime: the lookahead panic
// below, pdes_test.go, and TestShardCountInvariance under -race, which
// scripts/check.sh and CI run by name.
package pdes

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"dibs/internal/eventq"
	"dibs/internal/packet"
)

// Message is one cross-shard hand-off: a packet snapshot stamped with its
// arrival time and link key.
type Message struct {
	// At is the arrival time at the far end of the link (serialization
	// end + propagation delay + jitter, FIFO-clamped by the emitting
	// port). The lookahead contract guarantees At >= windowEnd+1 for any
	// message emitted during a window.
	At eventq.Time
	// Pri is the directed link's delivery ordering key (see
	// eventq.AtPri); unique per link, so it totally orders same-instant
	// arrivals from different links.
	Pri int64
	// Seq is the emitting shard's running emission count. Same-link
	// messages share a source shard, so (At, Pri, Seq) sorting preserves
	// per-link FIFO order.
	Seq uint64
	// Dst is the destination shard index.
	Dst int
	// Wire is the packet snapshot, carried by value so that a hand-off
	// allocates nothing: the emitting worker writes it into its outbox,
	// inject copies it into the receiving link's ring.
	Wire packet.Wire
	// Deliver is the event inject schedules on the destination shard at
	// (At, Pri). Bound once per receiving link, never per message.
	Deliver func()
}

// Stats is what the window loop did. It describes the engine, not the
// simulation: Parks differs from one run of the same input to the next.
type Stats struct {
	// Windows is the number of lookahead windows executed.
	Windows uint64
	// Messages is the number of cross-shard messages injected.
	Messages uint64
	// Parks counts barrier waits that outlasted the spin budget and put
	// their goroutine to sleep.
	Parks uint64
}

// A barrier wait polls the epoch spinPolls times flat out (about 130 µs at
// half a nanosecond a poll), then yieldPolls more times with a
// runtime.Gosched between polls (about a millisecond when nothing else is
// runnable), then parks. Parking is what has to stay rare: on the 2-core VM
// this was tuned on, a parked waiter costs 40-160 µs of wake-up on the next
// window's critical path, and the K=16 benchmark run (26,667 windows of
// ~40 µs) took 1.1 s with 200 parks and 2.9 s with 23,000, which is what
// spinPolls = 1<<16 produced. Workers finish a window within tens of
// microseconds of each other, which the flat-out phase covers. The yielding
// phase hands the processor to any goroutine that wants it, above all a
// peer whose own was taken by the collector or by a runner.Map sweep.
// Parking is the backstop for a peer the OS has descheduled, so that an
// oversubscribed process (-race, busy CI hosts) never busy-waits without
// bound. Constants, not options: nothing here changes what a run computes.
const (
	spinPolls  = 1 << 18
	yieldPolls = 1 << 12
)

// gate is a monotonic epoch one goroutine publishes and others wait for.
// The trailing pad keeps neighbouring gates' epochs off one cache line.
type gate struct {
	epoch    atomic.Uint64
	sleepers atomic.Int32
	mu       sync.Mutex
	wake     sync.Cond
	_        [64]byte
}

// publish advances the epoch to e and wakes whoever parked waiting for it.
// A waiter raises sleepers before it re-reads the epoch and publish stores
// the epoch before it reads sleepers, so one of the two sees the other.
func (g *gate) publish(e uint64) {
	g.epoch.Store(e)
	if g.sleepers.Load() != 0 {
		g.mu.Lock()
		g.wake.Broadcast()
		g.mu.Unlock()
	}
}

// wait returns once the epoch has reached e, adding to parks if it slept.
func (g *gate) wait(e uint64, parks *atomic.Uint64) {
	for i := 0; i < spinPolls+yieldPolls; i++ {
		if g.epoch.Load() >= e {
			return
		}
		if i >= spinPolls {
			runtime.Gosched()
		}
	}
	g.mu.Lock()
	g.sleepers.Add(1)
	for g.epoch.Load() < e {
		parks.Add(1)
		g.wake.Wait()
	}
	g.sleepers.Add(-1)
	g.mu.Unlock()
}

// engine is the state of one Run: the shard callbacks, the barrier, and
// the merge buffer. Between start.publish(k) and the matching done[w]
// epochs, worker w alone runs shards w, w+W, ...; outside that interval
// only the coordinator (worker 0, the caller's goroutine) touches
// anything.
type engine struct {
	nShards   int
	workers   int
	runWindow func(shard int, limit eventq.Time)
	flush     func(shard int) []Message
	inject    func(m Message)

	// limit and stop are written by the coordinator before start.publish
	// and read by workers after start.wait.
	limit eventq.Time
	stop  bool
	epoch uint64
	start gate   // coordinator -> workers: window epoch is open
	done  []gate // done[w], worker w -> coordinator: my shards ran epoch

	exited sync.WaitGroup
	parks  atomic.Uint64
	batch  []Message
	order  []int32
	stats  Stats
}

func newEngine(nShards int,
	runWindow func(shard int, limit eventq.Time),
	flush func(shard int) []Message,
	inject func(m Message)) *engine {
	e := &engine{
		nShards: nShards, workers: min(nShards, runtime.GOMAXPROCS(0)),
		runWindow: runWindow, flush: flush, inject: inject,
	}
	e.start.wake.L = &e.start.mu
	e.done = make([]gate, e.workers)
	for w := 1; w < e.workers; w++ {
		e.done[w].wake.L = &e.done[w].mu
		e.exited.Add(1)
		go e.work(w)
	}
	return e
}

// work is the loop of worker w >= 1.
func (e *engine) work(w int) {
	defer e.exited.Done()
	for epoch := uint64(1); ; epoch++ {
		e.start.wait(epoch, &e.parks)
		if e.stop {
			return
		}
		e.runShards(w)
		e.done[w].publish(epoch)
	}
}

func (e *engine) runShards(w int) {
	for s := w; s < e.nShards; s += e.workers {
		e.runWindow(s, e.limit)
	}
}

// close stops the workers, waits for them to exit, and returns the totals.
func (e *engine) close() Stats {
	e.stop = true
	e.epoch++
	e.start.publish(e.epoch)
	e.exited.Wait()
	e.stats.Parks = e.parks.Load()
	return e.stats
}

// window runs every shard through limit, then merges and injects what
// they emitted.
func (e *engine) window(limit eventq.Time) {
	e.limit = limit
	e.epoch++
	e.start.publish(e.epoch)
	e.runShards(0)
	for w := 1; w < e.workers; w++ {
		e.done[w].wait(e.epoch, &e.parks)
	}
	e.stats.Windows++

	// Sort an index, not the batch: a Message is 21 words.
	batch, order := e.batch[:0], e.order[:0]
	for i := 0; i < e.nShards; i++ {
		batch = append(batch, e.flush(i)...)
	}
	for i := range batch {
		order = append(order, int32(i))
	}
	e.batch, e.order = batch, order
	slices.SortFunc(order, func(i, j int32) int { return inOrder(&batch[i], &batch[j]) })
	for _, i := range order {
		m := &batch[i]
		if m.At <= limit {
			panic(fmt.Sprintf("pdes: lookahead violation: message at %v inside window ending %v", m.At, limit))
		}
		e.inject(*m)
	}
	e.stats.Messages += uint64(len(batch))
}

// inOrder is the global injection order: (At, Pri, Seq).
func inOrder(x, y *Message) int {
	if c := cmp.Compare(x.At, y.At); c != 0 {
		return c
	}
	if c := cmp.Compare(x.Pri, y.Pri); c != 0 {
		return c
	}
	return cmp.Compare(x.Seq, y.Seq)
}

// Run executes a sharded simulation until every shard's clock reaches
// until, and reports what the window loop did.
//
//   - runWindow(shard, limit) must execute shard's events through limit
//     (eventq.Scheduler.RunUntil semantics: events at <= limit run, the
//     clock ends at limit). Each window calls it exactly once per shard,
//     on one of min(nShards, GOMAXPROCS) workers (shard i on worker
//     i mod workers, worker 0 being the caller's goroutine), and never
//     for the same shard twice at once.
//   - flush(shard) must return the messages shard emitted since the last
//     flush and forget them; the slice may be reused from the next window
//     on. It is called only on the caller's goroutine between windows,
//     after every worker has finished the window.
//   - inject(m) must schedule m.Deliver on shard m.Dst at (m.At, m.Pri).
//     It is called only on the caller's goroutine between windows, in
//     globally sorted order.
//
// lookahead must be the minimum cross-shard link latency (> 0); until is
// the virtual end of the run. Panics on invalid arguments rather than
// limping into a lookahead violation.
func Run(nShards int, lookahead, until eventq.Time,
	runWindow func(shard int, limit eventq.Time),
	flush func(shard int) []Message,
	inject func(m Message)) (st Stats) {
	if nShards < 1 {
		panic(fmt.Sprintf("pdes: %d shards", nShards))
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("pdes: non-positive lookahead %v", lookahead))
	}
	e := newEngine(nShards, runWindow, flush, inject)
	defer func() { st = e.close() }()
	for base := eventq.Time(0); base <= until; base += lookahead {
		limit := base + lookahead - 1
		if limit > until || limit < base { // clamp, incl. overflow
			limit = until
		}
		e.window(limit)
		if limit == until {
			// Not left to the loop condition: within one lookahead of
			// MaxTime, base += lookahead wraps negative and never ends.
			break
		}
	}
	return
}
