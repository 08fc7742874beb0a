package netsim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"

	"dibs/internal/eventq"
	"dibs/internal/metrics"
	"dibs/internal/pdes"
	"dibs/internal/trace"
	"dibs/internal/workload"
)

// shardConfigs are the workloads the cross-shard-count property runs over:
// a pod-structured fat-tree (pods map to shards, cores spread) and a
// pod-less jellyfish (contiguous-block partition), both with background +
// incast traffic over every seeded stream that survives sharding; then,
// with every instrument on, the determinism workload and a detour-heavy
// K=8 burst whose most-detoured traced packets wander across shards.
func shardConfigs() map[string]Config {
	ft := DefaultConfig()
	ft.FatTreeK = 4
	ft.Duration = 20 * eventq.Millisecond
	ft.Drain = 60 * eventq.Millisecond
	ft.Seed = 424242
	ft.BGInterarrival = 10 * eventq.Millisecond
	ft.Query = &workload.QueryConfig{QPS: 400, Degree: 8, ResponseBytes: 20_000}

	jf := ft
	jf.Topo = TopoJellyfish
	jf.JellyfishSwitches = 12
	jf.JellyfishDegree = 4
	jf.JellyfishHostsPer = 2

	burst := DefaultConfig()
	burst.Seed = 1
	burst.Duration = 20 * eventq.Millisecond
	burst.Drain = 100 * eventq.Millisecond
	burst.Query = &workload.QueryConfig{QPS: 1500, Degree: 60, ResponseBytes: 20_000}
	burst.TraceEvents = true
	burst.TraceEveryNth = 5
	burst.UtilWindow = 2 * eventq.Millisecond
	burst.BufferSamplePeriod = eventq.Millisecond

	return map[string]Config{"fattree": ft, "jellyfish": jf, "instrumented": determinismConfig(), "burst": burst}
}

// shardFingerprint serializes everything observable about a finished
// sharded run in canonical form: the Results struct (minus the shard count
// itself), every retained sample (Values() sorts), every flow record in ID
// order, the instruments' products, and the executed-event total across
// shards. Every shard runs its own monitor ticks, so the total leaves them
// out.
func shardFingerprint(t *testing.T, n *Network, r *Results) []byte {
	t.Helper()
	var buf bytes.Buffer

	flat := *r
	flat.Collector = nil // pointer identity differs across runs
	flat.Cfg.Shards = 0  // the shard count is the one allowed difference
	// Empty samples report NaN percentiles, which JSON cannot carry.
	for _, p := range []*float64{
		&flat.QCT50, &flat.QCT99, &flat.QCTMax,
		&flat.ShortFCT50, &flat.ShortFCT99, &flat.BGFCT99, &flat.DetourP99,
	} {
		if math.IsNaN(*p) {
			*p = -1
		}
	}
	if err := json.NewEncoder(&buf).Encode(flat); err != nil {
		t.Fatalf("encoding results: %v", err)
	}
	fmt.Fprintln(&buf, r.String())

	c := r.Collector
	for _, s := range []struct {
		name string
		vals []float64
	}{
		{"qct", c.QCTs.Values()},
		{"shortbg", c.ShortBGFCTs.Values()},
		{"bg", c.BGFCTs.Values()},
		{"detours", detourValues(c)},
	} {
		fmt.Fprintf(&buf, "%s %v\n", s.name, s.vals)
	}

	var flows []*metrics.FlowInfo
	c.EachFlow(func(f *metrics.FlowInfo) { flows = append(flows, f) })
	sort.Slice(flows, func(i, j int) bool { return flows[i].ID < flows[j].ID })
	for _, f := range flows {
		fmt.Fprintf(&buf, "flow %d %v %d %d %v %v\n", f.ID, f.Class, f.Bytes, f.QueryID, f.Start, f.End)
	}

	fmt.Fprintf(&buf, "best path %d %v\n", c.BestDetours, c.BestTrace)
	if ev := c.Events; ev != nil {
		fmt.Fprintf(&buf, "events %d dropped, %s\n", ev.Dropped, ev.Summary())
		if err := trace.WriteJSONL(&buf, ev.Events()); err != nil {
			t.Fatalf("encoding trace: %v", err)
		}
	}
	if u := c.Util; u != nil {
		fmt.Fprintf(&buf, "util ports %v\n", portIDs(u.Ports()))
		for _, w := range u.Windows {
			fmt.Fprintf(&buf, "%v\n", w)
		}
	}
	if b := c.Buf; b != nil {
		fmt.Fprintf(&buf, "buffer ports %v\n", portIDs(b.Ports()))
		for _, s := range b.Snapshots {
			fmt.Fprintf(&buf, "%v %v %v\n", s.T, s.Len, s.Full)
		}
	}

	// Every shard runs the monitors' sampling events; the 1-shard run
	// counts them once.
	ticks := 0
	if c.Util != nil {
		ticks += len(c.Util.Windows)
	}
	if c.Buf != nil {
		ticks += len(c.Buf.Snapshots)
	}
	fmt.Fprintf(&buf, "executed %d\n", n.Executed()-uint64((len(n.shards)-1)*ticks))
	return buf.Bytes()
}

// portIDs renders a monitor's port list without its per-shard pointers.
func portIDs(ports []metrics.PortRef) [][2]int {
	out := make([][2]int, len(ports))
	for i, p := range ports {
		out[i] = [2]int{int(p.Node), p.Port}
	}
	return out
}

// TestShardCountInvariance is the sharded engine's core property: for a
// fixed seed, every shard count produces the byte-identical run — same
// metrics, same per-flow records, same pool accounting, same executed-event
// total. Shards=1 is the plain sequential engine, so this pins the parallel
// protocol (windows, message merge order, per-link delivery keys, arena
// custody transfer) to sequential semantics on both a pod-structured and a
// pod-less topology, and every instrument's merge (event-log order, path
// hops across shard boundaries, monitor port order) to the one-shard
// products. Run under -race, it doubles as the proof that the window loop
// shares nothing it shouldn't.
func TestShardCountInvariance(t *testing.T) {
	for name, base := range shardConfigs() {
		t.Run(name, func(t *testing.T) {
			if name == "burst" && testing.Short() {
				// Over a minute under -race; check.sh's dedicated race
				// step runs it without -short.
				t.Skip("detour-heavy K=8 burst")
			}
			cfg := base
			cfg.Shards = 1
			n1 := Build(cfg)
			r1 := n1.Run()
			ref := shardFingerprint(t, n1, r1)

			if r1.DeliveredData == 0 || r1.QueriesDone == 0 {
				t.Fatalf("reference run delivered nothing (delivered=%d queries=%d); config too small",
					r1.DeliveredData, r1.QueriesDone)
			}
			if r1.PoolLive != 0 {
				t.Fatalf("reference run leaked %d packets", r1.PoolLive)
			}

			for _, shards := range []int{2, 4, 8} {
				cfg := base
				cfg.Shards = shards
				n := Build(cfg)
				if got := len(n.shards); shards > 1 && got < 2 {
					t.Fatalf("Shards=%d built %d shards; partition degenerated", shards, got)
				}
				fp := shardFingerprint(t, n, n.Run())
				if !bytes.Equal(ref, fp) {
					t.Fatalf("Shards=%d diverged from Shards=1:\nref %d bytes, got %d bytes\nfirst difference near byte %d:\nref: %.120s\ngot: %.120s",
						shards, len(ref), len(fp), firstDiff(ref, fp),
						tail(ref, firstDiff(ref, fp)), tail(fp, firstDiff(ref, fp)))
				}
			}
		})
	}
}

// tail returns the fingerprint text around offset, for failure messages.
func tail(b []byte, off int) []byte {
	if off > len(b) {
		off = len(b)
	}
	start := off - 40
	if start < 0 {
		start = 0
	}
	return b[start:]
}

// TestShardHandOffDoesNotAllocatePerPacket pins the cross-shard hand-off's
// cost model on the fabric it exists for: a K=16 run on two shards may
// allocate at most twice what the same run on one shard does (a second
// collector's flow tables, the link rings and outboxes growing to size),
// while it hands more packets across the boundary than the one-shard run
// makes allocations in total — so one allocation per message fails this.
func TestShardHandOffDoesNotAllocatePerPacket(t *testing.T) {
	if testing.Short() {
		t.Skip("two K=16 runs")
	}
	cfg := DefaultConfig()
	cfg.FatTreeK = 16
	cfg.BGInterarrival = 5 * eventq.Millisecond
	cfg.Query.QPS = 8000
	cfg.Duration = 4 * eventq.Millisecond
	cfg.Drain = 8 * eventq.Millisecond
	run := func(shards int) (mallocs uint64, st pdes.Stats) {
		cfg.Shards = shards
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n := Build(cfg)
		n.Run()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, n.ShardStats()
	}
	one, st1 := run(1)
	two, st2 := run(2)
	if st1 != (pdes.Stats{}) {
		t.Errorf("one shard reported window-loop stats %+v", st1)
	}
	if st2.Messages < one {
		t.Fatalf("only %d cross-shard messages against %d mallocs on one shard; run too small to tell", st2.Messages, one)
	}
	if two > 2*one {
		t.Errorf("2 shards: %d mallocs for %d cross-shard messages, 1 shard: %d; want at most 2x", two, st2.Messages, one)
	}
	t.Logf("mallocs: 1 shard %d, 2 shards %d (%+v)", one, two, st2)
}
