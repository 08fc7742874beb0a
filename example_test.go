// The outputs below are bit-exact simulation results. Floating-point
// fusion differs between architectures, so, like the golden fingerprints,
// these examples run only on amd64.

//go:build amd64

package dibs_test

import (
	"bytes"
	"cmp"
	"fmt"
	"log"
	"slices"

	"dibs"
)

// Run the paper's default workload (K=8 fat-tree, DCTCP, 300 queries/s of
// 40-way incast plus background traffic) once with plain DCTCP and once
// with DIBS, and compare the headline metrics.
func ExampleRun() {
	fmt.Println("DIBS quickstart: 200ms of the paper's default workload, both arms")
	fmt.Println()

	run := func(useDIBS bool) *dibs.Results {
		cfg := dibs.DefaultConfig()
		cfg.DIBS = useDIBS
		cfg.Duration = 200 * dibs.Millisecond
		cfg.Drain = 300 * dibs.Millisecond
		cfg.Seed = 42
		return dibs.Run(cfg)
	}

	dctcp := run(false)
	withDIBS := run(true)

	fmt.Printf("%-28s %15s %15s\n", "", "DCTCP", "DCTCP+DIBS")
	row := func(name string, a, b float64) {
		fmt.Printf("%-28s %15.2f %15.2f\n", name, a, b)
	}
	row("QCT p50 (ms)", dctcp.QCT50, withDIBS.QCT50)
	row("QCT p99 (ms)", dctcp.QCT99, withDIBS.QCT99)
	row("short-flow FCT p99 (ms)", dctcp.ShortFCT99, withDIBS.ShortFCT99)
	row("packet drops", float64(dctcp.TotalDrops), float64(withDIBS.TotalDrops))
	row("detours", float64(dctcp.Detours), float64(withDIBS.Detours))
	row("timeouts", float64(dctcp.Timeouts), float64(withDIBS.Timeouts))
	fmt.Println()

	if withDIBS.TotalDrops == 0 && dctcp.TotalDrops > 0 {
		fmt.Println("DIBS absorbed every incast burst in neighboring switch buffers: zero loss,")
		fmt.Printf("and the 99th-percentile query completion time dropped from %.1fms to %.1fms.\n",
			dctcp.QCT99, withDIBS.QCT99)
	}
	// Output:
	// DIBS quickstart: 200ms of the paper's default workload, both arms
	//
	//                                        DCTCP      DCTCP+DIBS
	// QCT p50 (ms)                           15.09            6.65
	// QCT p99 (ms)                           38.53           11.46
	// short-flow FCT p99 (ms)                 0.64            0.94
	// packet drops                        13261.00            0.00
	// detours                                 0.00        66831.00
	// timeouts                             2537.00            0.00
	//
	// DIBS absorbed every incast burst in neighboring switch buffers: zero loss,
	// and the 99th-percentile query completion time dropped from 38.5ms to 11.5ms.
}

// Run a bursty incast with the structured event log enabled, write it to
// JSONL, read it back, and answer the kinds of questions the paper's
// Figures 1-2 pose: when did detouring start and stop, and which flows
// suffered most?
func ExampleWriteEventTrace() {
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

	// Which flows bore the detour storm? Most detours first, ties by flow
	// ID, so the ranking does not depend on map order.
	type fd struct {
		flow int64
		n    int
	}
	var worst []fd
	for f, n := range detoursPerFlow {
		worst = append(worst, fd{f, n})
	}
	slices.SortFunc(worst, func(a, b fd) int {
		return cmp.Or(cmp.Compare(b.n, a.n), cmp.Compare(a.flow, b.flow))
	})
	fmt.Println("\nmost-detoured flows:")
	for i := 0; i < 5 && i < len(worst); i++ {
		fmt.Printf("  flow %3d: %3d detour decisions\n", worst[i].flow, worst[i].n)
	}
	fmt.Printf("\n(every one of the %d flows still completed losslessly: drops = %d)\n",
		res.QueriesDone*80, res.TotalDrops)
	// Output:
	// run: sim 510.000ms: queries 1/1 done, QCT p50/p99 = 13.23/13.23 ms; drops 0 (overflow 0, no-detour 0, ttl 0, evicted 0), detours 8571
	//
	// event log: 9851 events (799253 bytes of JSONL)
	// detouring active 1.453ms -> 12.938ms (11.49ms of burst absorption)
	//
	// most-detoured flows:
	//   flow  34: 188 detour decisions
	//   flow  40: 158 detour decisions
	//   flow  11: 153 detour decisions
	//   flow  36: 152 detour decisions
	//   flow  41: 150 detour decisions
	//
	// (every one of the 80 flows still completed losslessly: drops = 0)
}
