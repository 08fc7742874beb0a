package main

// metricDef names one metric the harness produces. BENCHMARK.json lists the
// same names, units, directions and bounds; schema_test.go holds the two
// lists to each other.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
	// exact marks a simulated count: the same on every run at one seed, so
	// two sets of runs must agree on it to the last digit.
	exact bool
}

// endToEnd are the metrics a user of the simulator sees, reported with
// --trace 0 from the untraced timed repeats. Host costs are divided by the
// simulated work they paid for (packets, flows), because the benchmark is
// run at many seeds and the amount of simulated work follows the seed.
var endToEnd = []metricDef{
	{name: "wall_us_per_pkt", unit: "us", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "alloc_kb_per_flow", unit: "kB", better: "lower", bound: 0.15},
	{name: "mallocs_per_flow", unit: "count", better: "lower", bound: 0.15},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25},
	{name: "qct_mean_ms", unit: "ms", better: "lower", bound: 0.25},
}

// countMetrics are read off Results / Collector / Network.Executed.
var countMetrics = []metricDef{
	{name: "eventq.events", unit: "count", better: "lower", exact: true},
	{name: "eventq.events_per_pkt", unit: "count", better: "lower", exact: true},
	{name: "eventq.events_per_s", unit: "1/s", better: "higher"},
	{name: "packet.borrowed", unit: "count", better: "lower", exact: true},
	{name: "packet.live_end", unit: "count", better: "lower", exact: true},
	{name: "packet.allocs_per_pkt", unit: "count", better: "lower"},
	{name: "core.detours", unit: "count", better: "lower", exact: true},
	{name: "core.detour_frac", unit: "ratio", better: "lower", exact: true},
	{name: "core.detour_p99", unit: "count", better: "lower", exact: true},
	{name: "core.max_detours", unit: "count", better: "lower", exact: true},
	{name: "switching.drops", unit: "count", better: "lower", exact: true},
	{name: "switching.ttl_drops", unit: "count", better: "lower", exact: true},
	{name: "host.nic_drops", unit: "count", better: "lower", exact: true},
	{name: "transport.timeouts", unit: "count", better: "lower", exact: true},
	{name: "transport.retransmits", unit: "count", better: "lower", exact: true},
	{name: "transport.fast_recovers", unit: "count", better: "lower", exact: true},
	{name: "transport.retx_frac", unit: "ratio", better: "lower", exact: true},
	{name: "workload.queries_started", unit: "count", better: "higher", exact: true},
	{name: "workload.flows_started", unit: "count", better: "higher", exact: true},
	{name: "metrics.flows_done", unit: "count", better: "higher", exact: true},
	{name: "metrics.qct99_ms", unit: "ms", better: "lower", exact: true},
	{name: "metrics.short_fct99_ms", unit: "ms", better: "lower", exact: true},
	{name: "fluid.bytes_frac", unit: "ratio", better: "higher", exact: true},
	{name: "fluid.demotions", unit: "count", better: "higher", exact: true},
	{name: "fluid.promotions", unit: "count", better: "lower", exact: true},
	{name: "fluid.flows_end", unit: "count", better: "higher", exact: true},
	{name: "fluid.fidelity_err", unit: "ratio", better: "lower", exact: true},
	{name: "pdes.windows", unit: "count", better: "lower", exact: true},
	{name: "pdes.wall_1shard_s", unit: "s", better: "lower"},
	{name: "pdes.speedup", unit: "ratio", better: "higher"},
	{name: "pdes.mallocs_ratio", unit: "ratio", better: "lower"},
	{name: "runner.workers", unit: "count", better: "higher", exact: true},
	{name: "runner.parallel_eff", unit: "ratio", better: "higher"},
	{name: "netsim.build_s", unit: "s", better: "lower"},
	{name: "netsim.run_s", unit: "s", better: "lower"},
	{name: "netsim.sim_fingerprint", unit: "count", better: "lower", exact: true},
	{name: "experiments.fig09_s", unit: "s", better: "lower"},
	{name: "experiments.fig16_s", unit: "s", better: "lower"},
	{name: "experiments.dba_s", unit: "s", better: "lower"},
}

// modelFracs set a unit cost times a count against the run's host time, so
// that a unit cost and a profile share that disagree are visible.
var modelFracs = []string{"eventq", "packet", "core", "fluid"}

// perLayer lists every --trace 1 metric: the counts, one unit cost per
// kernel, one CPU share per layer and extra bucket, the model fractions,
// the tracing overhead and the machine-noise canary.
func perLayer() []metricDef {
	out := append([]metricDef(nil), countMetrics...)
	for _, k := range kernels {
		unit := "ns"
		switch k.perUnit {
		case 1e3:
			unit = "us"
		case 1e6:
			unit = "ms"
		}
		out = append(out, metricDef{name: k.name, unit: unit, better: "lower"})
	}
	for _, l := range append(append([]string(nil), layers...), bucketGC, bucketRuntime, bucketOther) {
		out = append(out, metricDef{name: "cpu_share." + l, unit: "ratio", better: "lower"})
	}
	for _, l := range modelFracs {
		out = append(out, metricDef{name: l + ".model_frac", unit: "ratio", better: "lower"})
	}
	return append(out,
		metricDef{name: "trace.overhead_frac", unit: "ratio", better: "lower"},
		metricDef{name: "machine.calib_ms", unit: "ms", better: "lower"},
		metricDef{name: "machine.calib_drift", unit: "ratio", better: "lower"},
	)
}
