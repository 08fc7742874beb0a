// Package trace records simulation events as a structured, bounded log
// that can be written to and read back from JSON Lines. It backs the
// paper's packet-level illustrations (Figures 1-2) and gives experiments a
// way to post-mortem detour storms: every drop, detour, delivery, flow
// start and flow completion carries its virtual timestamp and location.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"dibs/internal/eventq"
	"dibs/internal/packet"
)

// Kind classifies events.
type Kind uint8

const (
	// KindDeliver: a host received a data packet.
	KindDeliver Kind = iota
	// KindDrop: a switch discarded a packet.
	KindDrop
	// KindDetour: a switch detoured a packet (DIBS).
	KindDetour
	// KindFlowStart / KindFlowDone: a flow's sender starts, its receiver
	// has every byte.
	KindFlowStart
	KindFlowDone
	numKinds
)

var kindNames = [numKinds]string{"deliver", "drop", "detour", "flow-start", "flow-done"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// MarshalText implements encoding.TextMarshaler: a kind is its name.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler, refusing unknown
// names.
func (k *Kind) UnmarshalText(text []byte) error {
	for i, n := range kindNames {
		if n == string(text) {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("trace: unknown event kind %q", text)
}

// Event is one recorded occurrence.
type Event struct {
	// T is the virtual time in nanoseconds.
	T eventq.Time `json:"t"`
	// Kind names the event type (serialized as its name).
	Kind Kind `json:"kind"`
	// Node is where it happened (switch or host), -1 if n/a.
	Node packet.NodeID `json:"node"`
	// Flow is the affected flow, -1 if n/a.
	Flow packet.FlowID `json:"flow"`
	// Seq is the packet byte offset, -1 if n/a.
	Seq int64 `json:"seq"`
	// Detail carries kind-specific context (drop reason, detour ports,
	// a started flow's class, size and destination).
	Detail string `json:"detail,omitempty"`

	// pri is the same-instant key of the simulation event that recorded
	// this one (eventq.Scheduler.Pri); MergeFrom orders by it.
	pri int64
}

// maxEvents caps the events a Recorder keeps; further events are counted
// but discarded, so a detour storm cannot exhaust memory.
const maxEvents = 1 << 20

// Recorder accumulates the events one scheduler's run records, up to
// maxEvents.
type Recorder struct {
	clock   *eventq.Scheduler
	events  []Event
	Dropped int // events discarded after the cap
	counts  [numKinds]uint64
}

// NewRecorder creates a recorder on clock.
func NewRecorder(clock *eventq.Scheduler) *Recorder {
	return &Recorder{clock: clock}
}

// Record appends an event, stamped with the clock's time and the running
// event's same-instant key. A nil recorder (tracing off) records nothing.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	r.counts[e.Kind]++
	if len(r.events) >= maxEvents {
		r.Dropped++
		return
	}
	e.T, e.pri = r.clock.Now(), r.clock.Pri()
	r.events = append(r.events, e)
}

// before is the merge order: time, then the recording event's
// same-instant key, then — among ordinary (pri 0) events, whose only
// records are flow starts, scheduled in flow-ID order — the flow.
func before(a, b *Event) bool {
	if a.T != b.T {
		return a.T < b.T
	}
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	return a.pri == 0 && a.Flow < b.Flow
}

// MergeFrom folds o — another shard's recorder over the same run — into r.
// Both hold their shard's events in execution order, and a two-way merge
// on before restores the one-shard order: drops, detours and deliveries
// are recorded in link delivery events, whose key is unique to a link that
// delivers in one shard only. Each shard kept a prefix of its own stream,
// so the merged prefix of maxEvents events is exact.
func (r *Recorder) MergeFrom(o *Recorder) {
	merged := make([]Event, 0, min(len(r.events)+len(o.events), maxEvents))
	a, b := r.events, o.events
	for len(merged) < maxEvents && (len(a) > 0 || len(b) > 0) {
		if len(b) == 0 || len(a) > 0 && !before(&b[0], &a[0]) {
			merged, a = append(merged, a[0]), a[1:]
		} else {
			merged, b = append(merged, b[0]), b[1:]
		}
	}
	r.events = merged
	r.Dropped += o.Dropped + len(a) + len(b)
	for k := range r.counts {
		r.counts[k] += o.counts[k]
	}
}

// Events returns the recorded events (not a copy; do not modify).
func (r *Recorder) Events() []Event { return r.events }

// Count returns how many events of kind were recorded (including any
// discarded past the cap).
func (r *Recorder) Count(kind Kind) uint64 { return r.counts[kind] }

// Filter returns the events satisfying pred.
func Filter(events []Event, pred func(Event) bool) []Event {
	var out []Event
	for _, e := range events {
		if pred(e) {
			out = append(out, e)
		}
	}
	return out
}

// WriteJSONL writes events one JSON object per line.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a JSONL stream produced by WriteJSONL.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	dec := json.NewDecoder(r)
	for {
		var e Event
		if err := dec.Decode(&e); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, err
		}
		out = append(out, e)
	}
}

// Summary renders per-kind counts.
func (r *Recorder) Summary() string {
	s := ""
	for k := Kind(0); k < numKinds; k++ {
		if r.counts[k] > 0 {
			s += fmt.Sprintf("%s=%d ", k, r.counts[k])
		}
	}
	if r.Dropped > 0 {
		s += fmt.Sprintf("(truncated, %d beyond cap)", r.Dropped)
	}
	return s
}
