package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"time"

	"dibs"
	"dibs/internal/packet"
)

// reading is one reported metric: its unit and the summary of its samples.
type reading struct {
	Unit string `json:"unit"`
	summary
}

// report is everything one invocation on one workload found.
type report struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Trace      int      `json:"trace"`
	Quick      bool     `json:"quick"`
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NProc      int      `json:"nproc"`
	Comparable bool     `json:"comparable"` // false below 2 CPUs: the sharded and parallel workloads need them
	Noisy      bool     `json:"noisy"`      // the canary drifted by more than 5% across the workload
	Correct    bool     `json:"correct"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Problems   []string `json:"problems,omitempty"`

	Metrics map[string]reading `json:"metrics"`
	// Extra readings are printed for the reader but are not metrics of the
	// benchmark: the raw quantities the normalised metrics are made from.
	Extra map[string]reading `json:"extra,omitempty"`
	Spans []span             `json:"-"`
}

const (
	// A run measures this many inputs derived from --seed, once per cycle,
	// for as many whole cycles as fit in --seconds (never fewer than one).
	// Several inputs per run average out how much simulated work one seed
	// happens to draw, which is what a run-to-run spread across seeds is
	// mostly made of; whole cycles keep every exact metric a function of
	// the seed alone, however fast the machine is.
	inputsFull  = 5
	inputsQuick = 3
	maxCycles   = 3
	noisyDrift  = 0.05
	setupBuilds = 9
)

// inputSeed is the seed of a run's i-th input; input 0 is --seed itself.
func inputSeed(seed int64, i int) int64 { return seed + int64(i)<<20 }

// session accumulates one invocation's repeats and checks.
type session struct {
	w     workloadDef
	seed  int64
	quick bool
	rep   *report
	// want is the fingerprint every repeat of an input must reproduce, set
	// by the input's first repeat.
	want map[int]uint32
	// metrics holds every sample by name; names outside the run's metric
	// list are printed as extras (the raw quantities behind the metrics).
	metrics map[string][]float64
}

func newSession(w workloadDef, seed int64, trace int, quick bool) *session {
	return &session{w: w, seed: seed, quick: quick,
		rep: &report{Workload: w.name, Seed: seed, Trace: trace, Quick: quick,
			GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
			Comparable: runtime.NumCPU() >= 2},
		want: map[int]uint32{}, metrics: map[string][]float64{}}
}

// repeat runs the workload's given input once and books its operations and
// checks.
func (s *session) repeat(input int, ref bool, tr *tracer, parent int) outcome {
	o := runOnce(s.w, inputSeed(s.seed, input), s.quick, ref, tr, parent)
	if want, ok := s.want[input]; !ok {
		s.want[input] = o.fingerprint
	} else if o.fingerprint != want {
		o.failf("input %d: fingerprint %08x differs from its first repeat's %08x", input, o.fingerprint, want)
		o.failedOps = o.ops
	}
	s.rep.Attempted += o.ops
	s.rep.Failed += o.failedOps
	s.rep.Problems = append(s.rep.Problems, o.problems...)
	return o
}

func (s *session) add(name string, v float64) { s.metrics[name] = append(s.metrics[name], v) }

// finish turns the collected samples into the report: exactly the metrics
// defs names, everything else as extras.
func (s *session) finish(defs []metricDef) *report {
	s.rep.Metrics = map[string]reading{}
	for _, d := range defs {
		if len(s.metrics[d.name]) == 0 {
			s.rep.Problems = append(s.rep.Problems, "no reading for metric "+d.name)
			s.metrics[d.name] = []float64{0}
		}
		s.rep.Metrics[d.name] = reading{Unit: d.unit, summary: summarize(s.metrics[d.name])}
	}
	s.rep.Extra = map[string]reading{}
	for name, vs := range s.metrics {
		if _, ok := s.rep.Metrics[name]; !ok {
			s.rep.Extra[name] = reading{summary: summarize(vs)}
		}
	}
	s.rep.Correct = len(s.rep.Problems) == 0
	return s.rep
}

// measureEndToEnd is the --trace 0 run: the reference warm-up on input 0,
// untraced timed repeats of every input, the process's peak RSS, then the
// set-up time on its own.
func measureEndToEnd(w workloadDef, seed int64, seconds int, quick bool) *report {
	s := newSession(w, seed, 0, quick)
	calib0 := calibrate()

	s.repeat(0, true, nil, -1)
	inputs, budget := inputsFull, time.Duration(seconds)*time.Second
	if quick {
		inputs, budget = inputsQuick, 0
	}
	start := time.Now()
	for cycle := 1; cycle <= maxCycles; cycle++ {
		for i := 0; i < inputs; i++ {
			o := s.repeat(i, false, nil, -1)
			c := o.counts
			s.add("wall_us_per_pkt", o.runS*1e6/float64(c.Borrowed))
			s.add("alloc_kb_per_flow", o.allocB/1e3/float64(c.FlowsStarted))
			s.add("mallocs_per_flow", o.mallocs/float64(c.FlowsStarted))
			s.add("qct_mean_ms", mean(o.qcts))
			s.add("qct50_ms", median(o.qcts))
			s.add("wall_s", o.runS)
			s.add("alloc_mb", o.allocB/1e6)
			s.add("mallocs_k", o.mallocs/1e3)
			s.add("packets", float64(c.Borrowed))
			s.add("flows", float64(c.FlowsStarted))
			s.add("queries", float64(c.QueriesStarted))
		}
		// Another cycle only if it is expected to fit in the budget.
		if spent := time.Since(start); spent+spent/time.Duration(cycle) > budget {
			break
		}
	}
	s.add("peak_rss_mb", peakRSSMB())

	// Set-up is what Build costs: topology, FIB, and assembly. The sweep
	// pays it once per point, on the paper's default fabric.
	cfg := paperMix(seed, quick)
	if w.config != nil {
		cfg = w.config(seed, quick)
	}
	for i := 0; i < setupBuilds; i++ {
		t0 := time.Now()
		dibs.Build(cfg)
		s.add("setup_s", time.Since(t0).Seconds())
	}

	s.canary(calib0)
	return s.finish(endToEnd)
}

// canary times the calibration loop again and flags a drifting machine.
func (s *session) canary(before float64) {
	after := calibrate()
	drift := math.Abs(after-before) / before
	s.rep.Noisy = drift > noisyDrift
	s.add("machine.calib_ms", before)
	s.add("machine.calib_ms", after)
	s.add("machine.calib_drift", drift)
}

// measureLayers is the --trace 1 run, all of it on input 0: the reference
// warm-up, two untraced repeats, one repeat under the CPU profiler with
// spans recorded, the workload's own comparison runs, and the unit-cost
// kernels.
func measureLayers(w workloadDef, seed int64, seconds int, quick bool) (*report, error) {
	s := newSession(w, seed, 1, quick)
	calib0 := calibrate()

	ref := s.repeat(0, true, nil, -1)
	var walls []float64
	var plain outcome
	for i := 0; i < 2; i++ {
		plain = s.repeat(0, false, nil, -1)
		walls = append(walls, plain.runS)
		s.add("netsim.build_s", plain.buildS)
		s.add("netsim.run_s", plain.runS)
		for _, id := range sweepIDs {
			s.add("experiments."+id+"_s", plain.partS[id])
		}
	}
	wall := median(walls)

	tr := newTracer(w.name)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	root := tr.begin("workload", -1)
	traced := s.repeat(0, false, tr, root)
	tr.end(root)
	pprof.StopCPUProfile()
	s.rep.Spans = tr.spans
	s.add("trace.overhead_frac", traced.runS/wall-1)

	leaves, err := leafSamples(prof.Bytes())
	if err != nil {
		return nil, err
	}
	for bucket, share := range cpuShares(leaves) {
		s.add("cpu_share."+bucket, share)
	}

	c := plain.counts
	pkts := float64(c.Borrowed)
	s.add("eventq.events", float64(c.Events))
	s.add("eventq.events_per_pkt", float64(c.Events)/pkts)
	s.add("eventq.events_per_s", float64(c.Events)/wall)
	s.add("packet.borrowed", pkts)
	s.add("packet.live_end", float64(c.Live))
	s.add("packet.allocs_per_pkt", plain.mallocs/pkts)
	s.add("core.detours", float64(c.Detours))
	s.add("core.detour_frac", float64(c.Detours)/float64(max(c.Delivered, 1)))
	s.add("core.detour_p99", c.DetourP99)
	s.add("core.max_detours", float64(c.MaxDetours))
	s.add("switching.drops", float64(c.Drops))
	s.add("switching.ttl_drops", float64(c.TTLDrops))
	s.add("host.nic_drops", float64(c.NICDrops))
	s.add("transport.timeouts", float64(c.Timeouts))
	s.add("transport.retransmits", float64(c.Retransmits))
	s.add("transport.fast_recovers", float64(c.FastRecovers))
	s.add("transport.retx_frac", float64(c.Retransmits)/float64(max(c.Delivered, 1)))
	s.add("workload.queries_started", float64(c.QueriesStarted))
	s.add("workload.flows_started", float64(c.FlowsStarted))
	s.add("metrics.flows_done", float64(c.FlowsDone))
	s.add("metrics.qct99_ms", c.QCT99)
	s.add("metrics.short_fct99_ms", c.ShortFCT99)
	fluidBytes := float64(c.FluidBytes)
	s.add("fluid.bytes_frac", fluidBytes/math.Max(fluidBytes+float64(c.Delivered)*packet.DefaultMSS, 1))
	s.add("fluid.demotions", float64(c.FluidDemotions))
	s.add("fluid.promotions", float64(c.FluidPromotions))
	s.add("fluid.flows_end", float64(c.FluidFlowsEnd))
	s.add("pdes.windows", plain.windows)
	s.add("netsim.sim_fingerprint", float64(plain.fingerprint))

	// The workload's own comparison: the same input on one shard, or on
	// one worker, or in packet mode. Zero on the workloads it is not for.
	own := map[string]float64{"pdes.wall_1shard_s": 0, "pdes.speedup": 0, "pdes.mallocs_ratio": 0,
		"runner.workers": 0, "runner.parallel_eff": 0, "fluid.fidelity_err": 0}
	switch {
	case w.reference != nil:
		warm := median([]float64{s.repeat(0, true, nil, -1).runS, s.repeat(0, true, nil, -1).runS})
		own["pdes.wall_1shard_s"] = warm
		own["pdes.speedup"] = warm / wall
		own["pdes.mallocs_ratio"] = plain.mallocs / ref.mallocs
	case w.config == nil:
		workers := float64(runtime.GOMAXPROCS(0))
		own["runner.workers"] = workers
		own["runner.parallel_eff"] = s.repeat(0, true, nil, -1).runS / (workers * wall)
	case w.config(seed, quick).Mode == dibs.ModeHybrid:
		own["fluid.fidelity_err"] = fidelityErr(w, seed, quick)
	}
	for name, v := range own {
		s.add(name, v)
	}

	batch := time.Duration(seconds) * 1500 * time.Microsecond
	if quick {
		batch = 2 * time.Millisecond
	}
	for _, k := range kernels {
		for _, v := range unitCost(k, batch) {
			s.add(k.name, v)
		}
	}
	// modelFrac is count operations at a kernel's unit cost, as a share of
	// the run's host time.
	modelFrac := func(count float64, kernel string, unitNS float64) float64 {
		return count * median(s.metrics[kernel]) * unitNS / (wall * 1e9)
	}
	s.add("eventq.model_frac", modelFrac(float64(c.Events), "eventq.sched_pop_ns", 1))
	s.add("packet.model_frac", modelFrac(pkts, "packet.pool_cycle_ns", 1))
	s.add("core.model_frac", modelFrac(float64(c.Detours), "core.random_select_ns", 1))
	s.add("fluid.model_frac", modelFrac(plain.fluidTicks, "fluid.tick_us", 1e3))

	s.canary(calib0)
	return s.finish(perLayer()), nil
}

// fidelityErr runs long_hybrid's input, shortened, once in hybrid and once
// in packet mode, and returns the largest relative deviation between the
// two among median QCT, 99th-percentile QCT and summed long-flow goodput.
func fidelityErr(w workloadDef, seed int64, quick bool) float64 {
	cfg := w.config(seed, quick)
	cfg.Duration = scaled(150*dibs.Millisecond, quick)
	cfg.Drain = 50 * dibs.Millisecond
	cfg.Query.QPS = 200
	hybrid := dibs.Run(cfg)
	cfg.Mode = dibs.ModePacket
	pkt := dibs.Run(cfg)
	sum := func(xs []float64) (t float64) {
		for _, x := range xs {
			t += x
		}
		return t
	}
	worst := 0.0
	for _, pair := range [][2]float64{
		{hybrid.QCT50, pkt.QCT50}, {hybrid.QCT99, pkt.QCT99},
		{sum(hybrid.LongGoodputs), sum(pkt.LongGoodputs)},
	} {
		if dev := math.Abs(pair[0]-pair[1]) / pair[1]; dev > worst {
			worst = dev
		}
	}
	return finite(worst)
}
