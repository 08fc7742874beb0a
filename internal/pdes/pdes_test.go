package pdes

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dibs/internal/eventq"
)

// harness is a scripted stand-in for the netsim sharding layer: runWindow
// records the limits each shard was driven to, flush hands out whatever the
// script queued for that (shard, window), inject records arrival order.
// Per-shard state is touched only from that shard's worker (runWindow) or
// from the coordinator between windows (flush, inject) — the same contract
// Run documents — so the tests are meaningful under -race.
type harness struct {
	limits   [][]eventq.Time // per shard, one entry per window
	emit     func(shard, window int, limit eventq.Time) []Message
	injected []Message
}

func (h *harness) run(nShards int, lookahead, until eventq.Time) {
	h.limits = make([][]eventq.Time, max(nShards, 0))
	Run(nShards, lookahead, until,
		func(i int, limit eventq.Time) { h.limits[i] = append(h.limits[i], limit) },
		func(i int) []Message {
			if h.emit == nil {
				return nil
			}
			w := len(h.limits[i]) - 1
			return h.emit(i, w, h.limits[i][w])
		},
		func(m Message) { h.injected = append(h.injected, m) })
}

// panicOf runs f and returns its panic rendered as a string ("" if none).
func panicOf(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// The conservative window is exact: a message arriving at the window limit
// is a lookahead violation, one nanosecond later is the earliest legal
// arrival. An over-wide window (lookahead+1) is only caught when a message
// lands in the extra nanosecond, which this pins without a network.
func TestLookaheadBoundary(t *testing.T) {
	for _, window := range []int{0, 3} {
		for _, off := range []eventq.Time{-5, 0, 1, 7} {
			h := &harness{emit: func(shard, w int, limit eventq.Time) []Message {
				if shard == 1 && w == window {
					return []Message{{At: limit + off, Dst: 0}}
				}
				return nil
			}}
			msg := panicOf(func() { h.run(2, 10, 100) })
			if off <= 0 {
				if !strings.Contains(msg, "lookahead violation") {
					t.Errorf("window %d, At = limit%+d: panic %q, want a lookahead violation", window, off, msg)
				}
				if len(h.injected) != 0 {
					t.Errorf("window %d, At = limit%+d: violating message was injected", window, off)
				}
				continue
			}
			if msg != "" {
				t.Errorf("window %d, At = limit%+d: unexpected panic %q", window, off, msg)
			}
			want := eventq.Time(window*10+9) + off
			if len(h.injected) != 1 || h.injected[0].At != want {
				t.Errorf("window %d, At = limit%+d: injected %v, want one message at %v", window, off, h.injected, want)
			}
		}
	}
}

// Shards flush in index order and each outbox is in emission order, but the
// destination must see one global (At, Pri, Seq) order regardless.
func TestInjectOrderIsAtPriSeq(t *testing.T) {
	outbox := [][]Message{
		{{At: 30, Pri: 2, Seq: 0, Dst: 1}, {At: 20, Pri: 9, Seq: 1, Dst: 2}, {At: 30, Pri: 1, Seq: 2, Dst: 1}},
		{{At: 20, Pri: 9, Seq: 0, Dst: 0}, {At: 15, Pri: 7, Seq: 1, Dst: 2}},
		{{At: 30, Pri: 1, Seq: 1, Dst: 0}, {At: 11, Pri: 3, Seq: 0, Dst: 1}},
	}
	h := &harness{emit: func(shard, w int, _ eventq.Time) []Message {
		if w == 0 {
			return outbox[shard]
		}
		return nil
	}}
	h.run(3, 10, 40)
	type key struct {
		at       eventq.Time
		pri      int64
		seq      uint64
		dstShard int
	}
	var got []key
	for _, m := range h.injected {
		got = append(got, key{m.At, m.Pri, m.Seq, m.Dst})
	}
	want := []key{
		{11, 3, 0, 1},
		{15, 7, 1, 2},
		{20, 9, 0, 0},
		{20, 9, 1, 2},
		{30, 1, 1, 0},
		{30, 1, 2, 1},
		{30, 2, 0, 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("inject order\n got %v\nwant %v", got, want)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, c := range []struct {
		nShards   int
		lookahead eventq.Time
		want      string
	}{
		{0, 10, "pdes: 0 shards"},
		{-1, 10, "pdes: -1 shards"},
		{2, 0, "non-positive lookahead"},
		{2, -3, "non-positive lookahead"},
	} {
		h := &harness{}
		if msg := panicOf(func() { h.run(c.nShards, c.lookahead, 100) }); !strings.Contains(msg, c.want) {
			t.Errorf("Run(%d shards, lookahead %d): panic %q, want %q", c.nShards, c.lookahead, msg, c.want)
		}
	}
}

// Every shard is driven through the same windows, each lookahead wide, and
// the last one stops at until instead of overshooting it.
func TestWindowsClampToUntil(t *testing.T) {
	for _, c := range []struct {
		until eventq.Time
		want  []eventq.Time
	}{
		{25, []eventq.Time{9, 19, 25}},
		{29, []eventq.Time{9, 19, 29}},
		{30, []eventq.Time{9, 19, 29, 30}},
		{0, []eventq.Time{0}},
	} {
		h := &harness{}
		h.run(3, 10, c.until)
		for i, got := range h.limits {
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("until %d, shard %d: window limits %v, want %v", c.until, i, got, c.want)
			}
		}
	}
}

// Within one lookahead of eventq.MaxTime the next window's base overflows;
// the loop must stop on reaching until rather than wrap and run forever.
func TestRunEndsNearMaxTime(t *testing.T) {
	var limits []eventq.Time
	msg := panicOf(func() {
		Run(1, eventq.MaxTime/2+1, eventq.MaxTime,
			func(_ int, limit eventq.Time) {
				if len(limits) == 2 {
					panic("a third window")
				}
				limits = append(limits, limit)
			},
			func(int) []Message { return nil }, func(Message) {})
	})
	if want := []eventq.Time{eventq.MaxTime / 2, eventq.MaxTime}; msg != "" || !reflect.DeepEqual(limits, want) {
		t.Fatalf("window limits %v (panic %q), want %v", limits, msg, want)
	}
}

// The worker/barrier contract, for shard counts below, at and above any
// worker count -cpu selects: each window runs every shard exactly once and
// never twice at a time, and flush sees every shard finished with it. The
// per-shard logs are plain slices, so under -race a missing barrier edge
// is a reported race as well as a wrong count.
func TestEveryShardRunsOncePerWindow(t *testing.T) {
	const windows = 300
	var want []eventq.Time
	for w := 1; w <= windows; w++ {
		want = append(want, eventq.Time(w*10-1))
	}
	for _, nShards := range []int{1, 2, 3, 8} {
		running := make([]atomic.Int32, nShards)
		ran := make([][]eventq.Time, nShards)
		st := Run(nShards, 10, windows*10-1,
			func(i int, limit eventq.Time) {
				if running[i].Add(1) != 1 {
					t.Errorf("%d shards: shard %d ran concurrently with itself", nShards, i)
				}
				ran[i] = append(ran[i], limit)
				running[i].Add(-1)
			},
			func(i int) []Message {
				for j := range ran {
					if len(ran[j]) != len(ran[0]) {
						t.Errorf("%d shards: flush(%d) with shard %d at window %d and shard 0 at %d",
							nShards, i, j, len(ran[j]), len(ran[0]))
					}
				}
				return nil
			},
			func(Message) {})
		for i := range ran {
			if !reflect.DeepEqual(ran[i], want) {
				t.Errorf("%d shards: shard %d ran %d windows, want each of %d once in order", nShards, i, len(ran[i]), windows)
			}
		}
		if st.Windows != windows || st.Messages != 0 {
			t.Errorf("%d shards: stats %+v, want %d windows and no messages", nShards, st, windows)
		}
	}
}

// A barrier that only spun would need the scheduler's 10 ms preemption to
// get a descheduled worker running again, every window; yielding and
// parking hand the processor over at once.
func TestProgressWhileAProcIsHogged(t *testing.T) {
	var stop atomic.Bool
	hogged := make(chan struct{})
	go func() {
		defer close(hogged)
		for !stop.Load() {
		}
	}()
	defer func() {
		stop.Store(true)
		<-hogged
	}()

	const windows = 1000
	done := make(chan Stats, 1)
	go func() {
		done <- Run(8, 10, windows*10-1, func(int, eventq.Time) {},
			func(int) []Message { return nil }, func(Message) {})
	}()
	select {
	case st := <-done:
		if st.Windows != windows {
			t.Errorf("ran %d windows, want %d", st.Windows, windows)
		}
		t.Logf("%+v", st)
	case <-time.After(2 * time.Minute):
		t.Fatalf("%d windows on 8 shards did not finish beside a goroutine hogging a processor", windows)
	}
}

// Steady state allocates nothing: the batch and its sort index are reused,
// and neither the barrier nor the sort allocates. AllocsPerRun measures at
// GOMAXPROCS=1 while the workers were started under -cpu, so with -cpu 2,4
// every barrier wait here also goes the whole way to yielding or parking.
func TestWarmWindowsDoNotAllocate(t *testing.T) {
	const nShards, perShard = 3, 16
	out := make([][]Message, nShards)
	seq := make([]uint64, nShards)
	deliver := func() {}
	injected := 0
	e := newEngine(nShards,
		func(i int, limit eventq.Time) {
			out[i] = out[i][:0]
			for k := 0; k < perShard; k++ {
				seq[i]++
				out[i] = append(out[i], Message{At: limit + 1 + eventq.Time(k%5), Pri: int64(1 + i), Seq: seq[i], Dst: (i + 1) % nShards, Deliver: deliver})
			}
		},
		func(i int) []Message { return out[i] },
		func(Message) { injected++ })
	defer e.close()
	limit := eventq.Time(-1)
	window := func() {
		limit += 10
		e.window(limit)
	}
	for i := 0; i < 5; i++ {
		window()
	}
	const runs = 50
	if avg := testing.AllocsPerRun(runs, window); avg != 0 {
		t.Errorf("%v allocations per warm window carrying %d messages, want 0", avg, nShards*perShard)
	}
	if want := (5 + 1 + runs) * nShards * perShard; injected != want {
		t.Errorf("injected %d messages, want %d", injected, want)
	}
}
