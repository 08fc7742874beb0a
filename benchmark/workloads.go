package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"dibs"
	"dibs/internal/experiments"
	"dibs/internal/metrics"
	"dibs/internal/switching"
)

// workloadDef is one fixed input of the benchmark: a generated Config simulated
// to completion (or, for figure_sweep, three experiment sweeps). The seed
// only ever reaches the simulator through the Config / Opts built here.
type workloadDef struct {
	name string
	// drained workloads run long enough past the traffic window that every
	// query should finish; one that does not is a failed operation.
	drained bool
	// config builds the run's Config; nil marks the experiment sweep.
	config func(seed int64, quick bool) dibs.Config
	// reference turns the config into the variant the warm-up repeat runs
	// and the timed repeats must reproduce byte for byte (1 shard for the
	// sharded workload); nil means the warm-up runs the config unchanged.
	reference func(*dibs.Config)
}

// sweepIDs are the experiments figure_sweep runs per pass, and sweepPoints
// the sweep points they declare in total (10 + 10 + 8).
var sweepIDs = []string{"fig09", "fig16", "dba"}

const (
	sweepPoints     = 28
	sweepScale      = 0.1
	sweepQuickScale = 0.05
)

// scaled divides a traffic window by 4 in quick mode.
func scaled(d dibs.Time, quick bool) dibs.Time {
	if quick {
		return d / 4
	}
	return d
}

// paperMix is the paper's default configuration, shortened.
func paperMix(seed int64, quick bool) dibs.Config {
	cfg := dibs.DefaultConfig()
	cfg.Seed = seed
	cfg.Duration = scaled(1500*dibs.Millisecond, quick)
	cfg.Drain = 300 * dibs.Millisecond
	return cfg
}

var workloads = []workloadDef{
	{name: "paper_mix", drained: true, config: paperMix},
	{
		name: "incast_storm", drained: true,
		config: func(seed int64, quick bool) dibs.Config {
			cfg := dibs.DefaultConfig()
			cfg.Seed = seed
			cfg.BGInterarrival = 0
			cfg.Query.QPS = 2000
			cfg.Duration = scaled(300*dibs.Millisecond, quick)
			cfg.Drain = 300 * dibs.Millisecond
			return cfg
		},
	},
	{
		name: "long_hybrid", drained: true,
		config: func(seed int64, quick bool) dibs.Config {
			cfg := dibs.DefaultConfig()
			cfg.Seed = seed
			cfg.Long = &dibs.LongFlows{PerPair: 1}
			cfg.HostMarkAtPkts = 20
			cfg.BGInterarrival = 0
			cfg.Query.QPS = 100
			cfg.Mode = dibs.ModeHybrid
			cfg.Duration = scaled(3*dibs.Second, quick)
			cfg.Drain = 300 * dibs.Millisecond
			return cfg
		},
	},
	{
		// Not drained by design: long web-search flows outlive the run.
		name: "fabric_k16_shards2",
		config: func(seed int64, quick bool) dibs.Config {
			cfg := dibs.DefaultConfig()
			cfg.Seed = seed
			cfg.FatTreeK = 16
			cfg.BGInterarrival = 5 * dibs.Millisecond
			cfg.Query.QPS = 8000
			cfg.Duration = scaled(10*dibs.Millisecond, quick)
			cfg.Drain = 30 * dibs.Millisecond
			cfg.Shards = 2
			return cfg
		},
		reference: func(cfg *dibs.Config) { cfg.Shards = 1 },
	},
	{name: "figure_sweep", drained: true},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// simCounts are the simulated quantities read off Results / Collector /
// Network.Executed. They are exact for a seed, so two builds that claim the
// same simulated behaviour must agree on every one of them.
type simCounts struct {
	Events                              uint64 // 0 for figure_sweep: no Network is visible there
	Borrowed, Returned                  uint64
	Live                                int
	Detours, Delivered                  uint64
	MaxDetours                          int
	DetourP99                           float64
	Drops, TTLDrops, NICDrops           uint64
	Timeouts, Retransmits, FastRecovers int
	QueriesStarted, QueriesDone         int
	FlowsStarted, FlowsDone             int
	QCT99, ShortFCT99                   float64
	FluidBytes, FluidDemotions          uint64
	FluidPromotions                     uint64
	FluidFlowsEnd                       int
}

// add folds one run's counts into c (figure_sweep sums its sweep points).
func (c *simCounts) add(o simCounts) {
	c.Events += o.Events
	c.Borrowed += o.Borrowed
	c.Returned += o.Returned
	c.Live += o.Live
	c.Detours += o.Detours
	c.Delivered += o.Delivered
	c.MaxDetours = max(c.MaxDetours, o.MaxDetours)
	c.DetourP99 = math.Max(c.DetourP99, o.DetourP99)
	c.Drops += o.Drops
	c.TTLDrops += o.TTLDrops
	c.NICDrops += o.NICDrops
	c.Timeouts += o.Timeouts
	c.Retransmits += o.Retransmits
	c.FastRecovers += o.FastRecovers
	c.QueriesStarted += o.QueriesStarted
	c.QueriesDone += o.QueriesDone
	c.FlowsStarted += o.FlowsStarted
	c.FlowsDone += o.FlowsDone
}

// finite maps the NaN a percentile of an empty sample yields to 0, so every
// reported value is a JSON number.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// countsOf reads one run's simulated counts. events is Network.Executed(),
// 0 when the Network is out of reach (sweep points).
func countsOf(r *dibs.Results, events uint64) simCounts {
	c := simCounts{
		Events:   events,
		Borrowed: r.PoolBorrowed, Returned: r.PoolReturned, Live: r.PoolLive,
		Detours: r.Detours, Delivered: r.DeliveredData,
		MaxDetours: r.MaxDetours, DetourP99: finite(r.DetourP99),
		Drops: r.TotalDrops, TTLDrops: r.Drops[switching.DropTTL], NICDrops: r.HostNICDrops,
		Timeouts: r.Timeouts, Retransmits: r.Retransmits, FastRecovers: r.FastRecovers,
		QueriesStarted: r.QueriesStarted, QueriesDone: r.QueriesDone,
		QCT99: finite(r.QCT99), ShortFCT99: finite(r.ShortFCT99),
		FluidBytes: r.FluidBytes, FluidDemotions: r.FluidDemotions,
		FluidPromotions: r.FluidPromotions, FluidFlowsEnd: r.FluidFlows,
	}
	r.Collector.EachFlow(func(*metrics.FlowInfo) { c.FlowsStarted++ })
	for _, class := range []metrics.FlowClass{metrics.ClassQuery, metrics.ClassBackground, metrics.ClassLong} {
		c.FlowsDone += r.Collector.CompletedFlows(class)
	}
	return c
}

// outcome is everything one repeat of a workload yields: host costs, the
// simulated counts, a fingerprint of the simulated output, the operations
// it attempted (one per query or sweep point, plus the repeat itself) and
// failed, and the correctness checks it failed.
type outcome struct {
	buildS, runS    float64
	allocB, mallocs float64
	counts          simCounts
	fingerprint     uint32
	ops, failedOps  int
	problems        []string
	// qcts are the completion times (ms) of every finished query, pooled
	// over the sweep points for figure_sweep.
	qcts []float64
	// partS is the host time of each experiment of a sweep pass.
	partS map[string]float64
	// fluidTicks and windows count the fluid solver's ticks and the shard
	// barriers of the run; both follow from the Config alone.
	fluidTicks, windows float64
}

func (o *outcome) failf(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// fingerprintOf is a 32-bit FNV-1a of the run's printed output and counts.
func fingerprintOf(text string, c simCounts) uint32 {
	h := fnv.New32a()
	fmt.Fprintf(h, "%s|%+v", text, c)
	return h.Sum32()
}

// settle closes a repeat's books: unfinished operations fail on their own,
// and a repeat that failed any check fails every operation.
func (o *outcome) settle(unfinished int) {
	o.failedOps = unfinished
	if len(o.problems) > 0 {
		o.failedOps = o.ops
	}
}

// memDelta measures TotalAlloc / Mallocs over fn, starting from a collected
// heap so that every repeat sees the same garbage.
func memDelta(fn func()) (allocB, mallocs float64) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc - m0.TotalAlloc), float64(m1.Mallocs - m0.Mallocs)
}

// runConfig builds and runs one Config through the public API, timing the
// two calls separately. Spans go to tr under parent when tr is non-nil.
func runConfig(w workloadDef, cfg dibs.Config, tr *tracer, parent int) outcome {
	var o outcome
	var net *dibs.Network
	var res *dibs.Results
	o.allocB, o.mallocs = memDelta(func() {
		sp := tr.begin("build", parent)
		t0 := time.Now()
		net = dibs.Build(cfg)
		o.buildS = time.Since(t0).Seconds()
		tr.end(sp)

		sp = tr.begin("run", parent)
		t0 = time.Now()
		res = net.Run()
		o.runS = time.Since(t0).Seconds()
		tr.end(sp)
	})

	sp := tr.begin("reduce", parent)
	defer tr.end(sp)
	o.counts = countsOf(res, net.Executed())
	o.qcts = res.Collector.QCTs.Values()
	end := cfg.Duration + cfg.Drain
	if cfg.Mode == dibs.ModeFluid || cfg.Mode == dibs.ModeHybrid {
		o.fluidTicks = float64(end / cfg.FluidTick)
	}
	if cfg.Shards > 1 {
		o.windows = float64(end / cfg.LinkDelay)
	}
	o.fingerprint = fingerprintOf(res.String(), o.counts)
	c := o.counts
	o.ops = c.QueriesStarted + 1
	if c.Borrowed-c.Returned != uint64(c.Live) {
		o.failf("pool identity broken: borrowed %d - returned %d != live %d", c.Borrowed, c.Returned, c.Live)
	}
	if c.QueriesStarted == 0 {
		o.failf("no query started")
	}
	if cfg.BGInterarrival == 0 && cfg.Long == nil && w.drained && c.QueriesDone == c.QueriesStarted && c.Live != 0 {
		// Nothing but query traffic, and all of it done: no packet may be
		// outstanding. (Background and long flows may outlive the drain.)
		o.failf("%d packets still live after every flow finished", c.Live)
	}
	if cfg.Mode == dibs.ModeHybrid && c.FluidDemotions == 0 {
		o.failf("hybrid run demoted no flow to the rate model")
	}
	unfinished := 0
	if w.drained {
		unfinished = c.QueriesStarted - c.QueriesDone
	}
	o.settle(unfinished)
	return o
}

// runSweep runs one pass of the three experiments. Sweep points are visible
// only through Opts.Log, which the experiments call once per point with the
// point's *Results among the arguments; the pass fails its checks if that
// stops being so.
func runSweep(seed int64, quick bool, workers int, tr *tracer, parent int) outcome {
	o := outcome{partS: map[string]float64{}}
	scale := sweepScale
	if quick {
		scale = sweepQuickScale
	}
	var rendered bytes.Buffer
	var tables []*experiments.Table
	var points []*dibs.Results
	opts := experiments.Opts{Seed: seed, Scale: scale, Workers: workers,
		Log: func(_ string, args ...any) {
			for _, a := range args {
				if r, ok := a.(*dibs.Results); ok {
					points = append(points, r)
				}
			}
		}}
	o.allocB, o.mallocs = memDelta(func() {
		sp := tr.begin("run", parent)
		t0 := time.Now()
		for _, id := range sweepIDs {
			e, ok := experiments.ByID(id)
			if !ok {
				o.failf("experiment %q is not registered", id)
				continue
			}
			esp := tr.begin(id, sp)
			t1 := time.Now()
			tables = append(tables, e.Run(opts)...)
			o.partS[id] = time.Since(t1).Seconds()
			tr.end(esp)
		}
		o.runS = time.Since(t0).Seconds()
		tr.end(sp)
	})

	sp := tr.begin("reduce", parent)
	defer tr.end(sp)
	for _, t := range tables {
		t.Render(&rendered)
	}
	o.ops = sweepPoints + 1
	if len(points) != sweepPoints {
		o.failf("sweep logged %d points, want %d", len(points), sweepPoints)
	}
	unfinished := 0 // sweep points that left a query unfinished
	for _, r := range points {
		c := countsOf(r, 0)
		if c.QueriesDone != c.QueriesStarted {
			unfinished++
		}
		o.counts.add(c)
		o.qcts = append(o.qcts, r.Collector.QCTs.Values()...)
	}
	if len(tables) > 0 && len(tables[0].Rows) > 0 && len(tables[0].Rows[0].Vals) == 4 {
		// fig09's first row is the paper's default point (300 qps); columns
		// 1 and 3 are the DIBS arm's QCT99 and short-flow FCT99.
		o.counts.QCT99 = finite(tables[0].Rows[0].Vals[1])
		o.counts.ShortFCT99 = finite(tables[0].Rows[0].Vals[3])
	}
	o.fingerprint = fingerprintOf(rendered.String(), o.counts)
	o.settle(unfinished)
	return o
}

// runOnce runs one repeat of w. ref selects the reference variant (1 shard,
// 1 worker) whose output the ordinary repeats must reproduce.
func runOnce(w workloadDef, seed int64, quick, ref bool, tr *tracer, parent int) outcome {
	sp := tr.begin("repeat", parent)
	defer tr.end(sp)
	if w.config == nil {
		workers := runtime.GOMAXPROCS(0)
		if ref {
			workers = 1
		}
		return runSweep(seed, quick, workers, tr, sp)
	}
	cfg := w.config(seed, quick)
	if ref && w.reference != nil {
		w.reference(&cfg)
	}
	return runConfig(w, cfg, tr, sp)
}
