package trace

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"

	"dibs/internal/eventq"
	"dibs/internal/packet"
	"dibs/internal/quicktest"
)

func TestKindStrings(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		name := k.String()
		if strings.Contains(name, "Kind(") {
			t.Fatalf("kind %d has no name", k)
		}
		var back Kind
		if err := back.UnmarshalText([]byte(name)); err != nil || back != k {
			t.Fatalf("round trip failed for %q: %v", name, err)
		}
	}
	var k Kind
	if err := k.UnmarshalText([]byte("bogus")); err == nil {
		t.Fatal("bogus kind parsed")
	}
	if Kind(99).String() != "Kind(99)" {
		t.Fatal("unknown kind formatting")
	}
}

func TestRecorderCap(t *testing.T) {
	r := NewRecorder(3, eventq.NewScheduler())
	for i := 0; i < 5; i++ {
		r.Record(Event{T: 1, Kind: KindDrop})
	}
	if len(r.Events()) != 3 {
		t.Fatalf("events = %d, want 3", len(r.Events()))
	}
	if r.Dropped != 2 {
		t.Fatalf("dropped = %d", r.Dropped)
	}
	// Counts include discarded events.
	if r.Count(KindDrop) != 5 {
		t.Fatalf("count = %d", r.Count(KindDrop))
	}
	if !strings.Contains(r.Summary(), "drop=5") || !strings.Contains(r.Summary(), "truncated") {
		t.Fatalf("summary = %q", r.Summary())
	}
}

func TestFilters(t *testing.T) {
	events := []Event{
		{T: 10, Kind: KindFlowStart, Flow: 1},
		{T: 20, Kind: KindDetour, Flow: 2},
		{T: 30, Kind: KindDeliver, Flow: 1},
	}
	if got := Filter(events, func(e Event) bool { return e.Kind == KindDetour }); len(got) != 1 || got[0].Flow != 2 {
		t.Fatalf("Filter = %v", got)
	}
}

// Two shards' recorders merge into the order one scheduler running every
// event would have recorded them in: by time, then by the recording
// event's same-instant key, then by flow among ordinary (pri 0) events.
// The cap keeps the first max events of that order and counts the rest.
func TestMergeRestoresOneSchedulerOrder(t *testing.T) {
	type rec struct {
		at   eventq.Time
		pri  int64
		flow packet.FlowID
	}
	// Flow numbers spell out the expected merged order.
	shard0 := []rec{{5, 0, 0}, {5, 0, 3}, {5, 7, 4}, {9, 2, 7}}
	shard1 := []rec{{5, 0, 1}, {5, 0, 2}, {5, 9, 5}, {5, 9, 6}, {9, 3, 8}}
	record := func(max int, recs []rec) *Recorder {
		s := eventq.NewScheduler()
		r := NewRecorder(max, s)
		for _, e := range recs {
			e := e
			s.AtPri(e.at, e.pri, func() { r.Record(Event{Kind: KindDeliver, Flow: e.flow}) })
		}
		s.Run()
		return r
	}
	for _, max := range []int{100, 6, 3} {
		r := record(max, shard0)
		r.MergeFrom(record(max, shard1))
		got := r.Events()
		if want := min(max, 9); len(got) != want {
			t.Fatalf("max %d: merged %d events, want %d", max, len(got), want)
		}
		for i, e := range got {
			if e.Flow != packet.FlowID(i) {
				t.Fatalf("max %d: event %d is flow %d: %v", max, i, e.Flow, got)
			}
		}
		if r.Dropped != 9-len(got) || r.Count(KindDeliver) != 9 {
			t.Fatalf("max %d: dropped %d, counted %d", max, r.Dropped, r.Count(KindDeliver))
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	events := []Event{
		{T: 100, Kind: KindFlowStart, Node: 5, Flow: 7, Seq: -1, Detail: "bytes=2000"},
		{T: 250, Kind: KindDetour, Node: 3, Flow: 7, Seq: 1460, Detail: "2->4"},
		{T: 900, Kind: KindFlowDone, Node: 5, Flow: 7, Seq: -1},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"kind":"detour"`) {
		t.Fatalf("missing kind name: %s", buf.String())
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(events) {
		t.Fatalf("read %d events", len(back))
	}
	for i := range events {
		if back[i] != events[i] {
			t.Fatalf("event %d: %+v != %+v", i, back[i], events[i])
		}
	}
}

func TestReadJSONLRejectsUnknownKind(t *testing.T) {
	_, err := ReadJSONL(strings.NewReader(`{"t":1,"kind":"martian","node":0,"flow":0,"seq":0}` + "\n"))
	if err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// Property: any sequence of events survives a JSONL round trip intact.
func TestQuickJSONLRoundTrip(t *testing.T) {
	f := func(ts []int64, kinds []uint8, details []string) bool {
		n := len(ts)
		if len(kinds) < n {
			n = len(kinds)
		}
		if len(details) < n {
			n = len(details)
		}
		events := make([]Event, 0, n)
		for i := 0; i < n; i++ {
			d := details[i]
			if !utf8.ValidString(d) {
				d = ""
			}
			events = append(events, Event{
				T:      absT(ts[i]),
				Kind:   Kind(kinds[i] % uint8(numKinds)),
				Node:   packet.NodeID(i),
				Flow:   packet.FlowID(i * 3),
				Seq:    int64(i) * 1460,
				Detail: d,
			})
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, events); err != nil {
			return false
		}
		back, err := ReadJSONL(&buf)
		if err != nil || len(back) != len(events) {
			return false
		}
		for i := range events {
			if back[i] != events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quicktest.Config(t, 100)); err != nil {
		t.Fatal(err)
	}
}

func absT(v int64) eventq.Time {
	if v < 0 {
		v = -v
	}
	return eventq.Time(v)
}
