package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"time"
)

// span is one timed call the harness made, recorded from the harness's own
// call sites: workload > repeat > {build, run, reduce}.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for the root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the benchmark ends. A nil tracer
// records nothing, which is how the untraced repeats run.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
}

func newTracer(workload string) *tracer { return &tracer{workload: workload, t0: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload,
		StartNS: time.Since(t.t0).Nanoseconds()})
	return id
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].EndNS = time.Since(t.t0).Nanoseconds()
	}
}

// calibSink keeps the canary loop's result observable.
var calibSink uint64

// calibrate times a fixed pure-CPU loop (an xorshift chain: no memory
// traffic, no allocation) and returns milliseconds. Timed before and after
// a workload, it tells a noisy machine from a slow program.
func calibrate() float64 {
	x := uint64(0x9e3779b97f4a7c15)
	t0 := time.Now()
	for i := 0; i < 40_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
