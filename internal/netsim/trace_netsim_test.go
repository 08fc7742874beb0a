package netsim

import (
	"bytes"
	"testing"

	"dibs/internal/eventq"
	"dibs/internal/trace"
)

func TestEventTraceRecordsRun(t *testing.T) {
	cfg := smallConfig()
	cfg.TraceEvents = true
	cfg.OneShot = &OneShot{At: eventq.Millisecond, Senders: 12, FlowsPerSender: 2, Bytes: 20_000}
	cfg.Duration = 30 * eventq.Millisecond
	cfg.Drain = 300 * eventq.Millisecond
	r := Build(cfg).Run()
	ev := r.Collector.Events
	if ev == nil {
		t.Fatal("trace recorder missing")
	}
	if ev.Count(trace.KindFlowStart) != 24 || ev.Count(trace.KindFlowDone) != 24 {
		t.Fatalf("flow lifecycle events: start=%d done=%d",
			ev.Count(trace.KindFlowStart), ev.Count(trace.KindFlowDone))
	}
	if ev.Count(trace.KindDetour) != r.Detours {
		t.Fatalf("detour events %d != detour count %d", ev.Count(trace.KindDetour), r.Detours)
	}
	if ev.Count(trace.KindDeliver) != r.DeliveredData {
		t.Fatalf("deliver events %d != delivered %d", ev.Count(trace.KindDeliver), r.DeliveredData)
	}
	// The log round-trips through JSONL.
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, ev.Events()); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadJSONL(&buf)
	if err != nil || len(back) != len(ev.Events()) {
		t.Fatalf("round trip: %v, %d events", err, len(back))
	}
	// Per-flow view: flow 0 has start, deliveries, done — in time order.
	f0 := trace.Filter(ev.Events(), func(e trace.Event) bool { return e.Flow == 0 })
	if len(f0) < 3 {
		t.Fatalf("flow 0 events = %d", len(f0))
	}
	for i := 1; i < len(f0); i++ {
		if f0[i].T < f0[i-1].T {
			t.Fatal("trace not time ordered")
		}
	}
}
