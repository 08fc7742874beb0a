package pdes

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

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
