// Command dibsim runs a single configurable DIBS simulation and prints the
// paper's metrics, exposing every Table 1/2 knob as a flag. Each flag's
// default is the matching field of dibs.DefaultConfig.
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
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"dibs"
	"dibs/internal/prof"
	"dibs/internal/runner"
	"dibs/internal/stats"
)

func main() {
	// Tuning flags write straight into cfg; the rest are derived after Parse.
	cfg := dibs.DefaultConfig()
	flag.IntVar(&cfg.FatTreeK, "k", cfg.FatTreeK, "fat-tree K")
	flag.IntVar(&cfg.Oversub, "oversub", cfg.Oversub, "uplink capacity divisor (1:f^2 oversubscription)")
	flag.IntVar(&cfg.BufferPkts, "buffer", cfg.BufferPkts, "per-port buffer (packets)")
	flag.StringVar((*string)(&cfg.Buffer), "bufmode", string(cfg.Buffer), "buffer mode: droptail|infinite|shared|pfabric")
	flag.IntVar(&cfg.MarkAtPkts, "markat", cfg.MarkAtPkts, "DCTCP ECN marking threshold (packets, 0=off)")
	flag.BoolVar(&cfg.DIBS, "dibs", cfg.DIBS, "enable DIBS detouring")
	flag.StringVar((*string)(&cfg.Policy), "policy", string(cfg.Policy), "detour policy: random|load-aware|flow-based|probabilistic (probabilistic needs -transport pfabric, whose packets carry priorities)")
	flag.IntVar(&cfg.TTL, "ttl", cfg.TTL, "initial packet TTL")
	flag.IntVar(&cfg.DupAckThresh, "dupack", cfg.DupAckThresh, "dup-ack threshold (0 disables fast retransmit)")
	flag.Int64Var(&cfg.Seed, "seed", cfg.Seed, "RNG seed")
	flag.BoolVar(&cfg.PacketSpray, "spray", cfg.PacketSpray, "packet-level ECMP instead of flow-level")
	flag.BoolVar(&cfg.DelayedAck, "delack", cfg.DelayedAck, "DCTCP delayed-ACK ECN-echo state machine")
	flag.IntVar(&cfg.Shards, "shards", cfg.Shards, "conservative-PDES scheduler shards within one run (0 or 1 runs the sequential engine; results, -events included, are byte-identical for any count)")
	flag.StringVar((*string)(&cfg.Mode), "mode", string(cfg.Mode), "simulation fidelity: packet|fluid|hybrid (empty means packet; fluid/hybrid rate-model long flows; see DESIGN §9 for the options they exclude)")
	var (
		topo     = flag.String("topo", string(cfg.Topo), "topology: fattree|click|linear|jellyfish|hyperx")
		tp       = flag.String("transport", cfg.Transport.String(), "transport: dctcp|newreno|pfabric")
		qps      = flag.Float64("qps", cfg.Query.QPS, "query arrival rate (0 disables incast)")
		degree   = flag.Int("degree", cfg.Query.Degree, "incast degree")
		respKB   = flag.Int64("response", cfg.Query.ResponseBytes/1000, "query response size (KB)")
		bgIAms   = flag.Float64("bg", cfg.BGInterarrival.Millis(), "per-host background inter-arrival (ms, 0 disables)")
		duration = flag.Duration("duration", time.Duration(cfg.Duration), "traffic generation window")
		drain    = flag.Duration("drain", time.Duration(cfg.Drain), "extra drain time")
		fairN    = flag.Int("longflows", 0, "long-lived flows per host pair (fairness mode)")
		pfc      = flag.Bool("pfc", cfg.PFC, "enable Ethernet flow control (implies -bufmode shared, -dibs=false)")
		repeat   = flag.Int("repeat", 1, "repeat the run over seeds seed..seed+N-1 and aggregate")
		workers  = flag.Int("workers", 0, "parallel runs for -repeat (0 = GOMAXPROCS, 1 = serial); output is identical for any value")
		events   = flag.String("events", "", "write a JSONL event trace to this file")
		confIn   = flag.String("config", "", "load a JSON config file that fully describes the run (no tuning flag may be set with it; -events, -dumpconfig, -repeat, -workers and the profile flags still apply)")
		confOut  = flag.String("dumpconfig", "", "write the effective JSON config to this file and exit")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProf()

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
		if err := loadConfig(data, &cfg); err != nil {
			fmt.Fprintf(os.Stderr, "parsing config: %v\n", err)
			os.Exit(2)
		}
	} else {
		setTopology(&cfg, *topo)
		switch *tp {
		case "dctcp":
			cfg.Transport = dibs.DCTCP
		case "newreno":
			cfg.Transport = dibs.NewReno
		case "pfabric":
			cfg.Transport = dibs.PFabric
		default:
			fmt.Fprintf(os.Stderr, "unknown transport %q\n", *tp)
			os.Exit(2)
		}
		cfg.Duration, cfg.Drain = dibs.Duration(*duration), dibs.Duration(*drain)
		cfg.Query, cfg.BGInterarrival = nil, 0
		if *qps > 0 {
			cfg.Query = &dibs.QueryConfig{QPS: *qps, Degree: *degree, ResponseBytes: *respKB * 1000}
		}
		if *bgIAms > 0 {
			cfg.BGInterarrival = dibs.Time(*bgIAms * float64(dibs.Millisecond))
		}
		if *fairN > 0 {
			cfg.Long = &dibs.LongFlows{PerPair: *fairN}
		}
		if *pfc {
			cfg.PFC, cfg.DIBS, cfg.Buffer = true, false, dibs.BufferShared
		}
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

// retiredKeys maps each key that Config no longer has to the one value a
// -dumpconfig file holds for it: the fixed value the simulator now uses
// (Engine, RecordTimeline, TraceEventCap and BGDist: the last value dumped;
// an empty BGDist meant the web-search sizes every run now draws).
var retiredKeys = map[string]any{
	"CIOQIngressCap": 100.0, "CIOQSpeedup": 2.0, "InitCwnd": 10.0,
	"SharedPoolPkts": 1133.0, "SharedAlpha": 1.0, "SharedReserve": 10.0,
	"ProbabilisticStart": 0.8, "PFCXoff": 100.0, "PFCXon": 80.0,
	"HostQueuePkts": 100000.0, "FluidPromoteFrac": 0.5,
	"Engine": "wheel", "RecordTimeline": false, "TraceEventCap": 0.0,
	"BGDist": "",
}

// loadConfig decodes a -config file over cfg. Every key must name a Config
// field, except a retired key holding its one dumped value, which is
// dropped: an old dump still loads, and any other value would be ignored.
func loadConfig(data []byte, cfg *dibs.Config) error {
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		return err
	}
	var refused []string
	for key, raw := range keys {
		want, retired := retiredKeys[key]
		if !retired {
			continue
		}
		var got any
		if json.Unmarshal(raw, &got) != nil || got != want {
			refused = append(refused, fmt.Sprintf("%q is no longer a setting; a config file may hold it only as %#v", key, want))
		}
		delete(keys, key)
	}
	if len(refused) > 0 {
		sort.Strings(refused)
		return fmt.Errorf("%s", strings.Join(refused, "; "))
	}
	rest, err := json.Marshal(keys)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(rest))
	dec.DisallowUnknownFields()
	return dec.Decode(cfg)
}

// exitIfInvalid prints every reason Validate gives for refusing cfg, one
// "netsim: ..." line each, and exits with status 2.
func exitIfInvalid(cfg dibs.Config) {
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

// setTopology selects the -topo topology, giving the non-fat-tree ones a
// fixed small geometry.
func setTopology(cfg *dibs.Config, name string) {
	switch name {
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
		fmt.Fprintf(os.Stderr, "unknown topology %q\n", name)
		os.Exit(2)
	}
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
			err = dibs.WriteEventTrace(f, res)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "writing events: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "[event trace: %s — %s]\n", events, res.Collector.Events.Summary())
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
