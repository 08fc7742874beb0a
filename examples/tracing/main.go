// Tracing walkthrough: run a bursty incast with the structured event log
// enabled, write it to JSONL, read it back, and answer the kinds of
// questions the paper's Figures 1-2 pose: when did detouring start and
// stop, which flow suffered most, and how long did its packets wander?
//
//	go run ./examples/tracing
package main

import (
	"bytes"
	"fmt"
	"log"
	"sort"

	"dibs"
)

func main() {
	cfg := dibs.DefaultConfig()
	cfg.BGInterarrival = 0
	cfg.Query = nil
	cfg.OneShot = &dibs.OneShot{
		At:             dibs.Millisecond,
		Senders:        80,
		FlowsPerSender: 1,
		Bytes:          20_000,
	}
	cfg.Duration = 10 * dibs.Millisecond
	cfg.Drain = 500 * dibs.Millisecond
	cfg.TraceEvents = true
	cfg.Seed = 7

	res := dibs.Run(cfg)
	fmt.Printf("run: %s\n\n", res)

	// Round-trip the log through its wire format, as an external analysis
	// tool would consume it.
	var buf bytes.Buffer
	if err := dibs.WriteEventTrace(&buf, res); err != nil {
		log.Fatal(err)
	}
	wireBytes := buf.Len()
	events, err := dibs.ReadEventTrace(&buf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("event log: %d events (%d bytes of JSONL)\n", len(events), wireBytes)

	// When did detouring start and stop?
	var first, last dibs.Time
	detoursPerFlow := map[int64]int{}
	for _, e := range events {
		if e.Kind.String() != "detour" {
			continue
		}
		if first == 0 || e.T < first {
			first = e.T
		}
		if e.T > last {
			last = e.T
		}
		detoursPerFlow[int64(e.Flow)]++
	}
	if last > 0 {
		fmt.Printf("detouring active %v -> %v (%.2fms of burst absorption)\n",
			first, last, (last - first).Millis())
	}

	// Which flows bore the detour storm?
	type fd struct {
		flow int64
		n    int
	}
	var worst []fd
	for f, n := range detoursPerFlow {
		worst = append(worst, fd{f, n})
	}
	sort.Slice(worst, func(i, j int) bool { return worst[i].n > worst[j].n })
	fmt.Println("\nmost-detoured flows:")
	for i := 0; i < 5 && i < len(worst); i++ {
		fmt.Printf("  flow %3d: %3d detour decisions\n", worst[i].flow, worst[i].n)
	}
	fmt.Printf("\n(every one of the %d flows still completed losslessly: drops = %d)\n",
		res.QueriesDone*80, res.TotalDrops)
}
