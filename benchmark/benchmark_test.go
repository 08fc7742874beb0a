package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
)

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.N != 10 || s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 {
		t.Errorf("ten values: got %+v", s)
	}
	// statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
	s = summarize([]float64{30, 10, 50, 20, 40})
	if s.Q1 != 15 || s.Median != 30 || s.Q3 != 45 {
		t.Errorf("five values: got %+v", s)
	}
	if s := summarize([]float64{7}); s.Q1 != 7 || s.Median != 7 || s.Q3 != 7 {
		t.Errorf("one value: got %+v", s)
	}
	if !math.IsNaN(summarize(nil).Median) {
		t.Error("empty sample must summarise to NaN")
	}
}

// topFixture is `go tool pprof -top` output as a run of this repository
// prints it, including an inlined leaf and the allocator.
const topFixture = `File: dibsim
Type: cpu
Showing nodes accounting for 2.43s, 100% of 2.43s total
      flat  flat%   sum%        cum   cum%
     0.52s 21.40% 21.40%      0.61s 25.10%  dibs/internal/eventq.(*Scheduler).runWheel
     0.20s  8.23% 29.63%      0.20s  8.23%  dibs/internal/queue.(*fifo).pop (inline)
     0.11s  4.53% 34.16%      0.25s 10.29%  runtime.mallocgc
     0.10s  4.12% 38.27%      0.10s  4.12%  dibs/internal/switching.(*OutPort).onSerDone
     0.09s  3.70% 41.98%      0.09s  3.70%  dibs/internal/netsim.(*Network).makeEmit.func1
     0.08s  3.29% 45.27%      0.08s  3.29%  dibs/internal/runner.Map[go.shape.*uint8].func1
     0.07s  2.88% 48.15%      0.07s  2.88%  runtime.memmove
     0.06s  2.47% 50.62%      0.06s  2.47%  runtime.gcBgMarkWorker
     0.05s  2.06% 52.67%      0.05s  2.06%  runtime.chanrecv
     0.04s  1.65% 54.32%      0.04s  1.65%  sort.Slice
     0.03s  1.23% 55.56%      0.03s  1.23%  dibs/internal/hwlookup.Decide
     0.02s  0.82% 56.38%      0.02s  0.82%  main.runConfig
     0.01s  0.41% 56.79%      0.01s  0.41%  runtime/internal/atomic.(*Uint32).Load
`

func TestLayerBucketingOnPprofTopFixture(t *testing.T) {
	want := map[string]string{
		"dibs/internal/eventq.(*Scheduler).runWheel":      "eventq",
		"dibs/internal/queue.(*fifo).pop":                 "queue",
		"runtime.mallocgc":                                bucketGC,
		"dibs/internal/switching.(*OutPort).onSerDone":    "switching",
		"dibs/internal/netsim.(*Network).makeEmit.func1":  "netsim",
		"dibs/internal/runner.Map[go.shape.*uint8].func1": "runner",
		"runtime.memmove":                                 bucketRuntime,
		"runtime.gcBgMarkWorker":                          bucketGC,
		"runtime.chanrecv":                                bucketRuntime,
		"sort.Slice":                                      bucketOther,
		"dibs/internal/hwlookup.Decide":                   bucketOther, // not a listed layer
		"main.runConfig":                                  bucketOther,
		"runtime/internal/atomic.(*Uint32).Load":          bucketRuntime,
	}
	leaves := map[string]int64{}
	row := regexp.MustCompile(`^\s*([0-9.]+)s\s+\S+%\s+\S+%\s+\S+s\s+\S+%\s+(\S+)`)
	for _, line := range strings.Split(topFixture, "\n") {
		m := row.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		fn := m[2]
		if got := layerOf(fn); got != want[fn] {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want[fn])
		}
		leaves[fn]++
	}
	if len(leaves) != len(want) {
		t.Fatalf("fixture parsed %d rows, want %d", len(leaves), len(want))
	}
	shares := cpuShares(leaves)
	if len(shares) != len(layers)+3 {
		t.Errorf("cpuShares returned %d buckets, want every layer plus three", len(shares))
	}
	total := 0.0
	for _, v := range shares {
		total += v
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("shares sum to %v", total)
	}
	if got := shares[bucketGC]; math.Abs(got-2.0/13) > 1e-9 {
		t.Errorf("runtime_gc share = %v, want 2 of 13 rows", got)
	}
}

func TestLeafSamplesDecodesARealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	for i := 0; i < 3; i++ {
		calibrate()
	}
	pprof.StopCPUProfile()
	leaves, err := leafSamples(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, inLoop int64
	for fn, n := range leaves {
		total += n
		if strings.HasSuffix(fn, ".calibrate") {
			inLoop += n
		}
	}
	if total == 0 || inLoop*2 < total {
		t.Errorf("calibrate holds %d of %d samples; leaves: %v", inLoop, total, leaves)
	}
	if _, err := leafSamples([]byte("not a profile")); err == nil {
		t.Error("garbage decoded without error")
	}
}

// benchmarkJSON mirrors the keys of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []jsonMetric `json:"end_to_end"`
	PerLayer   []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", b.Paths)
	}
	if strings.Join(b.Command, " ") != "go run ./benchmark" {
		t.Errorf("command = %v", b.Command)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(b.Workloads) != len(workloads) || len(b.Workloads) < 2 || len(b.Workloads) > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}

	compare := func(kind string, got []jsonMetric, want []metricDef, limit int) {
		if len(got) != len(want) || len(got) < 1 || len(got) > limit {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the harness, limit %d", kind, len(got), len(want), limit)
		}
		for i, g := range got {
			checkName(g.Name)
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better || g.Bound != w.bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the harness %+v", kind, i, g, w)
			}
			if !unit.MatchString(g.Unit) || (g.Better != "lower" && g.Better != "higher") {
				t.Errorf("%s %q: bad unit %q or direction %q", kind, g.Name, g.Unit, g.Better)
			}
		}
	}
	compare("end_to_end", b.EndToEnd, endToEnd, 16)
	compare("per_layer", b.PerLayer, perLayer(), 128)
	for _, m := range b.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !seen["setup_s"] {
		t.Error("end_to_end must include setup_s")
	}
}

func TestCompareSets(t *testing.T) {
	timed := endToEnd[0] // bounded, not exact
	set := func(wall, events float64) map[string]*report {
		return map[string]*report{"w.trace0.json": {Metrics: map[string]reading{
			timed.name:      {summary: summary{Median: wall}},
			"eventq.events": {summary: summary{Median: events}},
		}}}
	}
	if d := compareSets(set(1, 5), set(1+0.9*timed.bound, 5)); len(d) != 0 {
		t.Errorf("medians inside the bound: %v", d)
	}
	if d := compareSets(set(1, 5), set(1+1.1*timed.bound, 5)); len(d) != 1 {
		t.Errorf("medians outside the bound: %v", d)
	}
	if d := compareSets(set(1, 5), set(1, 6)); len(d) != 1 {
		t.Errorf("an exact count that differs: %v", d)
	}
	if d := compareSets(set(1, 5), map[string]*report{}); len(d) != 1 {
		t.Errorf("a report missing from the second set: %v", d)
	}
}

// The quick incast_storm smoke: every check passes, every metric is read.
func TestQuickIncastStormSmoke(t *testing.T) {
	w, ok := workloadByName("incast_storm")
	if !ok {
		t.Fatal("incast_storm is not a workload")
	}
	check := func(rep *report, defs []metricDef) {
		t.Helper()
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 || !rep.Quick {
			t.Errorf("trace %d: correct %t, %d of %d operations failed, problems %v",
				rep.Trace, rep.Correct, rep.Failed, rep.Attempted, rep.Problems)
		}
		if len(rep.Metrics) != len(defs) {
			t.Errorf("trace %d: %d metrics reported, %d defined", rep.Trace, len(rep.Metrics), len(defs))
		}
	}
	e2e := measureEndToEnd(w, 1, 0, true)
	check(e2e, endToEnd)
	for _, d := range endToEnd {
		if v := e2e.Metrics[d.name].Median; !(v > 0) {
			t.Errorf("end-to-end metric %s = %v, must never be 0", d.name, v)
		}
	}
	if testing.Short() {
		return
	}
	layers, err := measureLayers(w, 1, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	check(layers, perLayer())
	if len(layers.Spans) < 5 {
		t.Errorf("traced repeat recorded %d spans, want workload > repeat > build/run/reduce", len(layers.Spans))
	}
	if layers.Metrics["cpu_share.fluid"].Median != 0 || layers.Metrics["core.detours"].Median == 0 {
		t.Error("incast_storm must detour and must not touch the fluid solver")
	}
}
