package netsim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"testing"

	"dibs/internal/eventq"
	"dibs/internal/metrics"
	"dibs/internal/switching"
	"dibs/internal/trace"
	"dibs/internal/workload"
)

// determinismConfig exercises every seeded stream at once: background and
// query workloads, per-switch ECMP/detour RNGs, link jitter, plus tracing
// and both monitors, on a small fat-tree.
func determinismConfig() Config {
	cfg := DefaultConfig()
	cfg.FatTreeK = 4
	cfg.Duration = 30 * eventq.Millisecond
	cfg.Drain = 80 * eventq.Millisecond
	cfg.Seed = 424242
	cfg.BGInterarrival = 10 * eventq.Millisecond
	cfg.Query = &workload.QueryConfig{QPS: 400, Degree: 8, ResponseBytes: 20_000}
	cfg.TraceEvents = true
	cfg.TraceEveryNth = 7
	cfg.UtilWindow = 5 * eventq.Millisecond
	cfg.BufferSamplePeriod = 5 * eventq.Millisecond
	return cfg
}

// fingerprint serializes everything observable about a finished run into
// one byte stream: the Results struct, every retained sample, every flow
// record, every detour decision, and the full structured event trace.
func fingerprint(t *testing.T, n *Network, r *Results) []byte {
	t.Helper()
	var buf bytes.Buffer

	// Cfg is an input, not an observation: the nil shadow field hides it
	// from the encoding (a zeroed Config would still spell out its field
	// names), so the golden constants survive Config gaining or losing fields.
	flat := struct {
		Results
		Cfg *struct{} `json:",omitempty"`
	}{Results: *r}
	flat.Collector = nil // pointer identity differs across runs
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
		{"detours", c.DetourCounts.Values()},
	} {
		fmt.Fprintf(&buf, "%s %v\n", s.name, s.vals)
	}

	var flows []*metrics.FlowInfo
	c.EachFlow(func(f *metrics.FlowInfo) { flows = append(flows, f) })
	sort.Slice(flows, func(i, j int) bool { return flows[i].ID < flows[j].ID })
	for _, f := range flows {
		fmt.Fprintf(&buf, "flow %d %v %d %d %v %v\n", f.ID, f.Class, f.Bytes, f.QueryID, f.Start, f.End)
	}
	for _, d := range c.Events.Events() {
		if d.Kind == trace.KindDetour {
			fmt.Fprintf(&buf, "detour %v %d\n", d.T, d.Node)
		}
	}

	fmt.Fprintf(&buf, "executed %d\n", n.Sched.Executed()+serializations(n))
	if err := trace.WriteJSONL(&buf, c.Events.Events()); err != nil {
		t.Fatalf("encoding trace: %v", err)
	}
	return buf.Bytes()
}

// serializations counts the serializations every transmitter completed.
// The golden fingerprints were recorded when each completion was a
// scheduler event of its own; the transmitter now completes them without
// one (switching.OutPort), so the fingerprint's executed line adds them
// back and keeps counting the same simulated steps. determinismConfig has
// no clocked port (PFC or a shared buffer), whose completions still run as
// events.
func serializations(n *Network) uint64 {
	var total uint64
	n.eachPort(func(op *switching.OutPort) { total += op.TxPackets })
	return total
}

// Absolute outputs, recorded when a 4-ary heap scheduler still shipped next
// to the timing wheel and both produced these values.
const (
	goldenPacketRun uint64 = 0x47363dcac1eb775d // fingerprint of determinismConfig()
	goldenHybridRun uint64 = 0xa0a8ff58ebfb4524 // fluidFingerprint of fluidConfig(ModeHybrid), Seed 7
)

// checkGolden pins an absolute simulation output as the FNV-64a of its
// fingerprint. Asserted on amd64 only: other architectures may fuse
// multiply-adds, which legitimately moves low-order float bits.
func checkGolden(t *testing.T, fp []byte, want uint64) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		return
	}
	h := fnv.New64a()
	h.Write(fp)
	if got := h.Sum64(); got != want {
		t.Fatalf("golden fingerprint %#x, want %#x: the simulated outcome changed", got, want)
	}
}

// TestSeededRunsAreByteIdentical is the determinism regression: two
// simulations built from the same Config must agree on every metric, every
// flow record, every trace event, and the executed-event count. Any global
// randomness, wall-clock read, or map-order dependence breaks it. The run
// is also held to its golden fingerprint, so a scheduler change that
// reorders events consistently — invisible run-vs-run — still fails.
func TestSeededRunsAreByteIdentical(t *testing.T) {
	// The lone subtest keeps the test ID that CI baselines know.
	t.Run("wheel", func(t *testing.T) {
		cfg := determinismConfig()

		n1 := Build(cfg)
		r1 := n1.Run()
		fp1 := fingerprint(t, n1, r1)

		n2 := Build(cfg)
		r2 := n2.Run()
		fp2 := fingerprint(t, n2, r2)

		if len(r1.Collector.Events.Events()) == 0 {
			t.Fatal("trace recorded no events; fingerprint would be vacuous")
		}
		if r1.DeliveredData == 0 || r1.QueriesDone == 0 {
			t.Fatalf("run delivered nothing (delivered=%d queries=%d); config too small",
				r1.DeliveredData, r1.QueriesDone)
		}
		if got, want := len(r2.Collector.Events.Events()), len(r1.Collector.Events.Events()); got != want {
			t.Fatalf("trace event counts differ: %d vs %d", got, want)
		}
		if !bytes.Equal(fp1, fp2) {
			t.Fatalf("seeded runs diverged:\nrun1 %d bytes, run2 %d bytes\nfirst difference near byte %d",
				len(fp1), len(fp2), firstDiff(fp1, fp2))
		}
		checkGolden(t, fp1, goldenPacketRun)
	})
}

// TestDifferentSeedsDiverge guards the fingerprint itself: if two different
// seeds fingerprint identically, the fingerprint is not capturing the run.
func TestDifferentSeedsDiverge(t *testing.T) {
	cfg := determinismConfig()
	n1 := Build(cfg)
	fp1 := fingerprint(t, n1, n1.Run())

	cfg.Seed = 424243
	n2 := Build(cfg)
	fp2 := fingerprint(t, n2, n2.Run())

	if bytes.Equal(fp1, fp2) {
		t.Fatal("different seeds produced identical fingerprints; fingerprint is too weak")
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
