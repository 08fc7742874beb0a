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
// state — not of shard count, batching, or goroutine interleaving. That is
// what the cross-shard-count determinism test pins.
//
// This package is the one place below the run boundary where goroutines
// are allowed: dibslint's nondet-goroutine rule allowlists it next to
// internal/runner. Run's callback contract is the whole isolation
// argument — runWindow(i, ...) is called only on shard i's worker, flush
// and inject only on the coordinator between windows, and the cmd/done
// channel sends are the only happens-before edges. Nothing static checks
// what the callbacks capture; the proof is at runtime: the lookahead panic
// below, pdes_test.go, and TestShardCountInvariance under -race, which
// scripts/check.sh and CI run by name.
package pdes

import (
	"fmt"
	"sort"

	"dibs/internal/eventq"
)

// Message is one cross-shard hand-off: a packet snapshot's delivery,
// wrapped by the emitting shard into a closure that borrows from the
// destination arena and performs the arrival.
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
	// Deliver schedules nothing itself: the coordinator hands it to
	// inject, which schedules it on the destination shard at (At, Pri).
	// Built by the emitting worker, executed by the destination worker.
	Deliver func()
}

// Run executes a sharded simulation until every shard's clock reaches
// until.
//
//   - runWindow(shard, limit) must execute shard's events through limit
//     (eventq.Scheduler.RunUntil semantics: events at <= limit run, the
//     clock ends at limit). It is called only on that shard's worker
//     goroutine, one window at a time.
//   - flush(shard) must return and clear the messages shard emitted since
//     the last flush. It is called only between windows, after every
//     worker has parked.
//   - inject(m) must schedule m.Deliver on shard m.Dst at (m.At, m.Pri).
//     It is called only between windows, in globally sorted order.
//
// lookahead must be the minimum cross-shard link latency (> 0); until is
// the virtual end of the run. Panics on invalid arguments rather than
// limping into a lookahead violation.
func Run(nShards int, lookahead, until eventq.Time,
	runWindow func(shard int, limit eventq.Time),
	flush func(shard int) []Message,
	inject func(m Message)) {
	if nShards < 1 {
		panic(fmt.Sprintf("pdes: %d shards", nShards))
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("pdes: non-positive lookahead %v", lookahead))
	}

	// One persistent worker per shard. cmd carries the window limit; done
	// carries the worker index back. Buffered so the coordinator can issue
	// a full round without blocking.
	cmd := make([]chan eventq.Time, nShards)
	done := make(chan int, nShards)
	for i := 0; i < nShards; i++ {
		cmd[i] = make(chan eventq.Time, 1)
		go func(i int) {
			for limit := range cmd[i] {
				runWindow(i, limit)
				done <- i
			}
		}(i)
	}
	defer func() {
		for i := 0; i < nShards; i++ {
			close(cmd[i])
		}
	}()

	var batch []Message
	for base := eventq.Time(0); base <= until; base += lookahead {
		limit := base + lookahead - 1
		if limit > until || limit < base { // clamp, incl. overflow
			limit = until
		}
		for i := 0; i < nShards; i++ {
			cmd[i] <- limit
		}
		for i := 0; i < nShards; i++ {
			<-done
		}
		batch = batch[:0]
		for i := 0; i < nShards; i++ {
			batch = append(batch, flush(i)...)
		}
		if len(batch) == 0 {
			continue
		}
		sort.Slice(batch, func(a, b int) bool {
			x, y := &batch[a], &batch[b]
			if x.At != y.At {
				return x.At < y.At
			}
			if x.Pri != y.Pri {
				return x.Pri < y.Pri
			}
			return x.Seq < y.Seq
		})
		for _, m := range batch {
			if m.At <= limit {
				panic(fmt.Sprintf("pdes: lookahead violation: message at %v inside window ending %v", m.At, limit))
			}
			inject(m)
		}
	}
}
