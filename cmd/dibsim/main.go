// Command dibsim runs a single configurable DIBS simulation and prints the
// paper's metrics, exposing every Table 1/2 knob as a flag.
//
// Examples:
//
//	dibsim                                   # paper defaults, 1s of traffic
//	dibsim -dibs=false                       # plain DCTCP baseline
//	dibsim -qps 2000 -degree 100             # intense incast
//	dibsim -buffer 25 -policy load-aware     # small buffers, §7 policy
//	dibsim -topo jellyfish -duration 500ms   # another topology
//	dibsim -repeat 8 -workers 4              # 8 seeds in parallel, aggregated
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dibs"
	"dibs/internal/prof"
	"dibs/internal/runner"
	"dibs/internal/stats"
)

func main() {
	var (
		topo     = flag.String("topo", "fattree", "topology: fattree|click|linear|jellyfish|hyperx")
		k        = flag.Int("k", 8, "fat-tree K")
		oversub  = flag.Int("oversub", 1, "uplink capacity divisor (1:f^2 oversubscription)")
		buffer   = flag.Int("buffer", 100, "per-port buffer (packets)")
		bufMode  = flag.String("bufmode", "droptail", "buffer mode: droptail|infinite|shared|pfabric")
		markAt   = flag.Int("markat", 20, "DCTCP ECN marking threshold (packets, 0=off)")
		useDIBS  = flag.Bool("dibs", true, "enable DIBS detouring")
		policy   = flag.String("policy", "random", "detour policy: random|load-aware|flow-based|probabilistic (probabilistic needs -transport pfabric, whose packets carry priorities)")
		tp       = flag.String("transport", "dctcp", "transport: dctcp|newreno|pfabric")
		ttl      = flag.Int("ttl", 255, "initial packet TTL")
		dupack   = flag.Int("dupack", 0, "dup-ack threshold (0 disables fast retransmit)")
		qps      = flag.Float64("qps", 300, "query arrival rate (0 disables incast)")
		degree   = flag.Int("degree", 40, "incast degree")
		respKB   = flag.Int64("response", 20, "query response size (KB)")
		bgIAms   = flag.Float64("bg", 120, "per-host background inter-arrival (ms, 0 disables)")
		duration = flag.Duration("duration", time.Second, "traffic generation window")
		drain    = flag.Duration("drain", 300*time.Millisecond, "extra drain time")
		seed     = flag.Int64("seed", 1, "RNG seed")
		fairN    = flag.Int("longflows", 0, "long-lived flows per host pair (fairness mode)")
		pfc      = flag.Bool("pfc", false, "enable Ethernet flow control (implies -bufmode shared, -dibs=false)")
		spray    = flag.Bool("spray", false, "packet-level ECMP instead of flow-level")
		delack   = flag.Bool("delack", false, "DCTCP delayed-ACK ECN-echo state machine")
		repeat   = flag.Int("repeat", 1, "repeat the run over seeds seed..seed+N-1 and aggregate")
		workers  = flag.Int("workers", 0, "parallel runs for -repeat (0 = GOMAXPROCS, 1 = serial); output is identical for any value")
		events   = flag.String("events", "", "write a JSONL event trace to this file")
		confIn   = flag.String("config", "", "load a JSON config file that fully describes the run (no tuning flag may be set with it; -events, -dumpconfig, -repeat, -workers and the profile flags still apply)")
		confOut  = flag.String("dumpconfig", "", "write the effective JSON config to this file and exit")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file at exit")
		shards   = flag.Int("shards", 1, "conservative-PDES scheduler shards within one run (results are byte-identical for any count; >1 forbids -events)")
		mode     = flag.String("mode", "packet", "simulation fidelity: packet|fluid|hybrid (fluid/hybrid rate-model long flows; see DESIGN §9 for the options they exclude)")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProf()

	cfg := dibs.DefaultConfig()
	if *confIn != "" {
		// Pure config mode: the JSON file fully describes the run, so a
		// tuning flag set next to it would be silently ignored.
		var tuning []string
		flag.Visit(func(f *flag.Flag) {
			if !configModeFlags[f.Name] {
				tuning = append(tuning, "-"+f.Name)
			}
		})
		if len(tuning) > 0 {
			fmt.Fprintf(os.Stderr, "%s cannot be combined with -config, whose file describes the whole run\n", strings.Join(tuning, ", "))
			os.Exit(2)
		}
		data, err := os.ReadFile(*confIn)
		if err != nil {
			fmt.Fprintf(os.Stderr, "reading config: %v\n", err)
			os.Exit(1)
		}
		if err := json.Unmarshal(data, &cfg); err != nil {
			fmt.Fprintf(os.Stderr, "parsing config: %v\n", err)
			os.Exit(1)
		}
	} else {
		applyFlags(&cfg, flags{
			topo: *topo, k: *k, oversub: *oversub, buffer: *buffer,
			bufMode: *bufMode, markAt: *markAt, useDIBS: *useDIBS,
			policy: *policy, tp: *tp, ttl: *ttl, dupack: *dupack,
			qps: *qps, degree: *degree, respKB: *respKB, bgIAms: *bgIAms,
			duration: *duration, drain: *drain, seed: *seed, fairN: *fairN,
			pfc: *pfc, spray: *spray, delack: *delack,
			shards: *shards, mode: *mode,
		})
	}
	if *events != "" {
		cfg.TraceEvents = true
	}

	if *repeat > 1 {
		if *events != "" || *confOut != "" {
			fmt.Fprintln(os.Stderr, "-repeat is incompatible with -events and -dumpconfig")
			os.Exit(2)
		}
		runRepeat(cfg, *repeat, *workers)
		return
	}
	runIt(cfg, *confOut, *events)
}

// runRepeat runs the configuration across consecutive seeds — in parallel
// when workers allows — printing per-seed summaries in seed order plus
// aggregate tail statistics. Each run is a pure function of its seed, so
// the output is identical for every worker count.
func runRepeat(cfg dibs.Config, repeat, workers int) {
	exitIfInvalid(cfg) // the seed, all that varies across repeats, is never a reason
	start := time.Now()
	baseSeed := cfg.Seed
	results := runner.Map(workers, repeat, func(i int) *dibs.Results {
		c := cfg
		c.Seed = baseSeed + int64(i)
		return dibs.Build(c).Run()
	})

	var qct99, fct99, drops, detours stats.Sample
	for i, r := range results {
		fmt.Printf("seed %-6d %s\n", baseSeed+int64(i), r)
		qct99.Add(r.QCT99)
		fct99.Add(r.ShortFCT99)
		drops.Add(float64(r.TotalDrops))
		detours.Add(float64(r.Detours))
	}
	fmt.Printf("\naggregate over %d seeds (%d..%d)\n", repeat, baseSeed, baseSeed+int64(repeat)-1)
	fmt.Printf("QCT99    mean %8.2f ms   min %8.2f   max %8.2f\n", qct99.Mean(), qct99.Min(), qct99.Max())
	fmt.Printf("FCT99    mean %8.2f ms   min %8.2f   max %8.2f\n", fct99.Mean(), fct99.Min(), fct99.Max())
	fmt.Printf("drops    mean %8.1f      min %8.0f   max %8.0f\n", drops.Mean(), drops.Min(), drops.Max())
	fmt.Printf("detours  mean %8.1f      min %8.0f   max %8.0f\n", detours.Mean(), detours.Min(), detours.Max())
	fmt.Fprintf(os.Stderr, "[wall %.1fs]\n", time.Since(start).Seconds())
}

// configModeFlags are the flags that still apply with -config: they say
// what to do with the run, not what the run is.
var configModeFlags = map[string]bool{
	"config": true, "events": true, "dumpconfig": true, "repeat": true,
	"workers": true, "cpuprofile": true, "memprofile": true,
}

// exitIfInvalid prints every reason Validate gives for refusing cfg, one
// "netsim: ..." line each, and exits with status 2.
func exitIfInvalid(cfg dibs.Config) {
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

// flags bundles the command-line tuning knobs.
type flags struct {
	topo, bufMode, policy, tp   string
	mode                        string
	k, oversub, buffer, markAt  int
	ttl, dupack, degree, fairN  int
	shards                      int
	respKB                      int64
	qps, bgIAms                 float64
	duration, drain             time.Duration
	seed                        int64
	useDIBS, pfc, spray, delack bool
}

func applyFlags(cfg *dibs.Config, f flags) {
	switch f.topo {
	case "fattree":
		cfg.Topo = dibs.TopoFatTree
	case "click":
		cfg.Topo = dibs.TopoClick
	case "linear":
		cfg.Topo = dibs.TopoLinear
		cfg.LinearSwitches, cfg.LinearHostsPer = 8, 4
	case "jellyfish":
		cfg.Topo = dibs.TopoJellyfish
		cfg.JellyfishSwitches, cfg.JellyfishDegree, cfg.JellyfishHostsPer = 16, 4, 4
	case "hyperx":
		cfg.Topo = dibs.TopoHyperX
		cfg.HyperXX, cfg.HyperXY, cfg.HyperXHostsPer = 4, 4, 4
	default:
		fmt.Fprintf(os.Stderr, "unknown topology %q\n", f.topo)
		os.Exit(2)
	}
	cfg.FatTreeK = f.k
	cfg.Oversub = f.oversub
	cfg.BufferPkts = f.buffer
	cfg.MarkAtPkts = f.markAt
	cfg.Buffer = dibs.BufferMode(f.bufMode) // Validate names an unknown mode or policy
	cfg.DIBS = f.useDIBS
	cfg.Policy = dibs.DetourPolicy(f.policy)
	switch f.tp {
	case "dctcp":
		cfg.Transport = dibs.DCTCP
	case "newreno":
		cfg.Transport = dibs.NewReno
	case "pfabric":
		cfg.Transport = dibs.PFabric
	default:
		fmt.Fprintf(os.Stderr, "unknown transport %q\n", f.tp)
		os.Exit(2)
	}
	cfg.TTL = f.ttl
	cfg.DupAckThresh = f.dupack
	cfg.Seed = f.seed
	cfg.Duration = dibs.Duration(f.duration)
	cfg.Drain = dibs.Duration(f.drain)
	if f.qps > 0 {
		cfg.Query = &dibs.QueryConfig{QPS: f.qps, Degree: f.degree, ResponseBytes: f.respKB * 1000}
	} else {
		cfg.Query = nil
	}
	if f.bgIAms > 0 {
		cfg.BGInterarrival = dibs.Time(f.bgIAms * float64(dibs.Millisecond))
	} else {
		cfg.BGInterarrival = 0
	}
	if f.fairN > 0 {
		cfg.Long = &dibs.LongFlows{PerPair: f.fairN}
	}
	if f.pfc {
		cfg.PFC = true
		cfg.DIBS = false
		cfg.Buffer = dibs.BufferShared
	}
	cfg.PacketSpray = f.spray
	cfg.DelayedAck = f.delack
	cfg.Shards = f.shards
	cfg.Mode = dibs.SimMode(f.mode)
}

func runIt(cfg dibs.Config, confOut, events string) {
	if confOut != "" {
		data, err := json.MarshalIndent(cfg, "", "  ")
		if err == nil {
			err = os.WriteFile(confOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "writing config: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", confOut)
		return
	}

	exitIfInvalid(cfg)
	start := time.Now()
	net := dibs.Build(cfg)
	res := net.Run()
	if events != "" {
		f, err := os.Create(events)
		if err == nil {
			err = dibs.WriteEventTrace(f, net)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "writing events: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "[event trace: %s — %s]\n", events, net.Trace.Summary())
	}
	fmt.Println(res)
	fmt.Printf("\nQCT   p50 %8.2f ms   p99 %8.2f ms   max %8.2f ms  (%d/%d queries)\n",
		res.QCT50, res.QCT99, res.QCTMax, res.QueriesDone, res.QueriesStarted)
	fmt.Printf("FCT   p50 %8.2f ms   p99 %8.2f ms  (short background flows, %d bg flows done)\n",
		res.ShortFCT50, res.ShortFCT99, res.BGFlowsDone)
	fmt.Printf("loss  %d drops (%d overflow)   detours %d (%.1f%% of delivered)\n",
		res.TotalDrops, res.Drops[0], res.Detours, 100*res.DetouredFrac)
	fmt.Printf("recovery  %d timeouts, %d retransmits, %d fast recoveries\n",
		res.Timeouts, res.Retransmits, res.FastRecovers)
	if len(res.LongGoodputs) > 0 {
		fmt.Printf("fairness  Jain %.3f over %d long flows\n", res.JainIndex, len(res.LongGoodputs))
	}
	if res.FluidBytes > 0 {
		fmt.Printf("fluid  %d bytes rate-modeled  %d demotions  %d promotions  %d flows still fluid\n",
			res.FluidBytes, res.FluidDemotions, res.FluidPromotions, res.FluidFlows)
	}
	if st := net.ShardStats(); st.Windows > 0 {
		// stderr, like the wall time: parks depend on the machine.
		fmt.Fprintf(os.Stderr, "[shards: %d windows, %d cross-shard messages, %d barrier parks]\n",
			st.Windows, st.Messages, st.Parks)
	}
	fmt.Fprintf(os.Stderr, "[wall %.1fs]\n", time.Since(start).Seconds())
}
