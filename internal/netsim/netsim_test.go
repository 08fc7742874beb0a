package netsim

import (
	"math"
	"testing"

	"dibs/internal/eventq"
	"dibs/internal/metrics"
	"dibs/internal/switching"
	"dibs/internal/trace"
	"dibs/internal/transport"
	"dibs/internal/workload"
)

// smallConfig returns a fast K=4 fat-tree configuration with no workload;
// tests add what they need.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.FatTreeK = 4
	cfg.Duration = 50 * eventq.Millisecond
	cfg.Drain = 100 * eventq.Millisecond
	cfg.BGInterarrival = 0
	cfg.Query = nil
	return cfg
}

func incastQuery(qps float64, degree int, bytes int64) *workload.QueryConfig {
	return &workload.QueryConfig{QPS: qps, Degree: degree, ResponseBytes: bytes}
}

func TestBuildTopologies(t *testing.T) {
	for _, mk := range []func(c *Config){
		func(c *Config) { c.Topo = TopoFatTree; c.FatTreeK = 4 },
		func(c *Config) { c.Topo = TopoClick },
		func(c *Config) { c.Topo = TopoLinear; c.LinearSwitches = 3; c.LinearHostsPer = 2 },
		func(c *Config) {
			c.Topo = TopoJellyfish
			c.JellyfishSwitches = 6
			c.JellyfishDegree = 3
			c.JellyfishHostsPer = 2
		},
		func(c *Config) { c.Topo = TopoHyperX; c.HyperXX = 2; c.HyperXY = 2; c.HyperXHostsPer = 2 },
	} {
		cfg := smallConfig()
		mk(&cfg)
		n := Build(cfg)
		if len(n.Topo.Hosts()) < 2 {
			t.Fatalf("%s: too few hosts", cfg.Topo)
		}
		widest := 0
		for _, sid := range n.Topo.Switches() {
			widest = max(widest, len(n.Topo.Ports(sid)))
		}
		if hosts, radix := cfg.geometry(); hosts != len(n.Topo.Hosts()) || radix != widest {
			t.Fatalf("%s: geometry %d hosts, radix %d; built %d hosts, widest switch %d ports",
				cfg.Topo, hosts, radix, len(n.Topo.Hosts()), widest)
		}
		// Every node has a handler; switches and hosts are disjoint.
		for _, hid := range n.Topo.Hosts() {
			if n.HostsByID[hid] == nil || n.Switches[hid] != nil {
				t.Fatalf("%s: host table broken", cfg.Topo)
			}
		}
		for _, sid := range n.Topo.Switches() {
			if n.Switches[sid] == nil || n.HostsByID[sid] != nil {
				t.Fatalf("%s: switch table broken", cfg.Topo)
			}
		}
	}
}

func TestSingleFlowDelivers(t *testing.T) {
	cfg := smallConfig()
	n := Build(cfg)
	hosts := n.Topo.Hosts()
	n.StartFlow(hosts[0], hosts[15], 100_000, metrics.ClassBackground, -1)
	r := n.Run()
	if r.Collector.CompletedFlows(metrics.ClassBackground) != 1 {
		t.Fatalf("flow did not complete: %s", r)
	}
	if r.TotalDrops != 0 {
		t.Fatalf("unloaded network dropped packets: %s", r)
	}
	if r.Detours != 0 {
		t.Fatal("unloaded network detoured packets (DIBS must be invisible when idle)")
	}
	// Flow endpoints cleaned up.
	if n.HostsByID[hosts[0]].ActiveFlows()+n.HostsByID[hosts[15]].ActiveFlows() != 0 {
		t.Fatal("endpoints leaked")
	}
}

func TestIncastDIBSVersusDroptail(t *testing.T) {
	run := func(dibs bool) *Results {
		cfg := smallConfig()
		cfg.DIBS = dibs
		cfg.Duration = 30 * eventq.Millisecond
		cfg.Drain = 300 * eventq.Millisecond
		cfg.OneShot = &OneShot{At: eventq.Millisecond, Senders: 12, FlowsPerSender: 2, Bytes: 20_000}
		return Build(cfg).Run()
	}
	dt := run(false)
	db := run(true)
	if dt.QueriesDone != 1 || db.QueriesDone != 1 {
		t.Fatalf("incast incomplete: droptail %s / dibs %s", dt, db)
	}
	// 24 flows x 10-pkt initial windows >> 100-pkt buffer: droptail must
	// drop, DIBS must not.
	if dt.Drops[switching.DropOverflow] == 0 {
		t.Fatalf("droptail saw no overflow drops: %s", dt)
	}
	if db.NetworkDrops() != 0 {
		t.Fatalf("DIBS dropped packets: %s", db)
	}
	if db.Detours == 0 {
		t.Fatal("DIBS never detoured under incast")
	}
	// The headline result: DIBS completes the query faster (droptail
	// takes timeouts).
	if !(db.QCT99 < dt.QCT99) {
		t.Fatalf("DIBS QCT99 %.2f !< droptail QCT99 %.2f", db.QCT99, dt.QCT99)
	}
}

func TestIncastDIBSMatchesInfiniteBuffer(t *testing.T) {
	run := func(mode BufferMode, dibs bool) *Results {
		cfg := smallConfig()
		cfg.Buffer = mode
		cfg.DIBS = dibs
		cfg.Duration = 30 * eventq.Millisecond
		cfg.Drain = 300 * eventq.Millisecond
		cfg.OneShot = &OneShot{At: eventq.Millisecond, Senders: 12, FlowsPerSender: 2, Bytes: 20_000}
		return Build(cfg).Run()
	}
	inf := run(BufferInfinite, false)
	db := run(BufferDropTail, true)
	if inf.TotalDrops != 0 {
		t.Fatalf("infinite buffer dropped: %s", inf)
	}
	// §5.2: DIBS achieves near-optimal QCT (within ~25% here).
	if db.QCT99 > float64(inf.QCT99*1.25)+1 {
		t.Fatalf("DIBS QCT %.2fms far from infinite-buffer QCT %.2fms", db.QCT99, inf.QCT99)
	}
}

func TestQueryWorkloadCompletes(t *testing.T) {
	cfg := smallConfig()
	cfg.Query = incastQuery(200, 8, 20_000)
	cfg.Duration = 100 * eventq.Millisecond
	cfg.Drain = 300 * eventq.Millisecond
	r := Build(cfg).Run()
	if r.QueriesStarted == 0 {
		t.Fatal("no queries generated")
	}
	if r.QueriesDone != r.QueriesStarted {
		t.Fatalf("queries %d/%d done: %s", r.QueriesDone, r.QueriesStarted, r)
	}
	if math.IsNaN(r.QCT99) {
		t.Fatal("no QCT recorded")
	}
	if r.NetworkDrops() != 0 {
		t.Fatalf("DIBS run dropped: %s", r)
	}
}

func TestBackgroundWorkloadCompletes(t *testing.T) {
	cfg := smallConfig()
	cfg.BGInterarrival = 20 * eventq.Millisecond
	cfg.Duration = 100 * eventq.Millisecond
	cfg.Drain = 500 * eventq.Millisecond
	r := Build(cfg).Run()
	if r.BGFlowsDone == 0 {
		t.Fatal("no background flows completed")
	}
	if r.Collector.BGFCTs.N() != r.BGFlowsDone {
		t.Fatal("FCT sample count mismatch")
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() *Results {
		cfg := smallConfig()
		cfg.Query = incastQuery(300, 8, 20_000)
		cfg.BGInterarrival = 40 * eventq.Millisecond
		cfg.Duration = 60 * eventq.Millisecond
		cfg.Seed = 42
		return Build(cfg).Run()
	}
	a, b := mk(), mk()
	if a.QCT99 != b.QCT99 || a.TotalDrops != b.TotalDrops || a.Detours != b.Detours ||
		a.BGFlowsDone != b.BGFlowsDone || a.DeliveredData != b.DeliveredData {
		t.Fatalf("runs differ:\n%s\n%s", a, b)
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	mk := func(seed int64) *Results {
		cfg := smallConfig()
		cfg.Query = incastQuery(300, 8, 20_000)
		cfg.Duration = 60 * eventq.Millisecond
		cfg.Seed = seed
		return Build(cfg).Run()
	}
	a, b := mk(1), mk(2)
	if a.DeliveredData == b.DeliveredData && a.QCT99 == b.QCT99 {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

func TestFairnessLongFlows(t *testing.T) {
	cfg := smallConfig()
	cfg.Long = &LongFlows{PerPair: 2}
	cfg.Duration = 100 * eventq.Millisecond
	cfg.Drain = 0
	r := Build(cfg).Run()
	// K=4: 16 hosts -> 8 pairs x 2 flows x 2 directions = 32 flows.
	if len(r.LongGoodputs) != 32 {
		t.Fatalf("long flows = %d, want 32", len(r.LongGoodputs))
	}
	if r.JainIndex < 0.9 {
		t.Fatalf("Jain index = %.3f, want > 0.9 (§5.6)", r.JainIndex)
	}
	for _, g := range r.LongGoodputs {
		if g <= 0 {
			t.Fatal("a long flow made no progress")
		}
	}
}

func TestPFabricRunCompletes(t *testing.T) {
	cfg := smallConfig()
	cfg.Buffer = BufferPFabric
	cfg.BufferPkts = 24
	cfg.MarkAtPkts = 0
	cfg.DIBS = false
	cfg.Transport = transport.PFabric
	cfg.Query = incastQuery(200, 8, 20_000)
	cfg.Duration = 50 * eventq.Millisecond
	cfg.Drain = 300 * eventq.Millisecond
	r := Build(cfg).Run()
	if r.QueriesDone == 0 {
		t.Fatalf("pFabric completed no queries: %s", r)
	}
	if r.QueriesDone != r.QueriesStarted {
		t.Fatalf("pFabric queries %d/%d: %s", r.QueriesDone, r.QueriesStarted, r)
	}
}

func TestSharedBufferAbsorbsModerateIncast(t *testing.T) {
	cfg := smallConfig()
	cfg.Buffer = BufferShared
	cfg.DIBS = false
	cfg.OneShot = &OneShot{At: eventq.Millisecond, Senders: 12, FlowsPerSender: 2, Bytes: 20_000}
	cfg.Duration = 30 * eventq.Millisecond
	cfg.Drain = 300 * eventq.Millisecond
	r := Build(cfg).Run()
	// §5.5.2: with DBA the whole 1133-packet pool absorbs the burst
	// without loss even without DIBS.
	if r.TotalDrops != 0 {
		t.Fatalf("DBA dropped under moderate incast: %s", r)
	}
	if r.QueriesDone != 1 {
		t.Fatalf("incast incomplete: %s", r)
	}
}

func TestTTLExhaustionForcesDrops(t *testing.T) {
	// A tiny TTL starves detoured packets (§5.5.3): with heavy incast
	// and TTL 8, DIBS must record TTL drops.
	cfg := smallConfig()
	cfg.TTL = 8
	cfg.OneShot = &OneShot{At: eventq.Millisecond, Senders: 15, FlowsPerSender: 4, Bytes: 20_000}
	cfg.Duration = 50 * eventq.Millisecond
	cfg.Drain = 500 * eventq.Millisecond
	r := Build(cfg).Run()
	if r.Drops[switching.DropTTL] == 0 {
		t.Fatalf("no TTL drops with TTL=8 under heavy incast: %s", r)
	}
}

func TestTraceCapturesDetouredPath(t *testing.T) {
	cfg := smallConfig()
	cfg.TraceEveryNth = 1
	cfg.OneShot = &OneShot{At: eventq.Millisecond, Senders: 12, FlowsPerSender: 2, Bytes: 20_000}
	cfg.Duration = 30 * eventq.Millisecond
	cfg.Drain = 300 * eventq.Millisecond
	r := Build(cfg).Run()
	if r.MaxDetours == 0 {
		t.Skip("no detours this seed")
	}
	if len(r.Collector.BestTrace) == 0 {
		t.Fatal("no trace captured despite detours")
	}
	detoured := false
	for _, h := range r.Collector.BestTrace {
		if h.Detoured {
			detoured = true
		}
	}
	if !detoured {
		t.Fatal("best trace records no detour hops")
	}
}

func TestMonitorsCollect(t *testing.T) {
	cfg := smallConfig()
	cfg.UtilWindow = 5 * eventq.Millisecond
	cfg.BufferSamplePeriod = 5 * eventq.Millisecond
	cfg.TraceEvents = true
	cfg.OneShot = &OneShot{At: eventq.Millisecond, Senders: 12, FlowsPerSender: 2, Bytes: 20_000}
	cfg.Duration = 30 * eventq.Millisecond
	cfg.Drain = 100 * eventq.Millisecond
	r := Build(cfg).Run()
	c := r.Collector
	if c.Util == nil || len(c.Util.Windows) == 0 {
		t.Fatal("no utilization windows")
	}
	if c.Buf == nil || len(c.Buf.Snapshots) == 0 {
		t.Fatal("no buffer snapshots")
	}
	if got := c.Events.Count(trace.KindDetour); got != r.Detours {
		t.Fatalf("trace holds %d detour events, results count %d", got, r.Detours)
	}
	// Hot-link analysis runs.
	hf := c.Util.HotFractions(0.9)
	if len(hf) != len(c.Util.Windows) {
		t.Fatal("hot fraction length mismatch")
	}
}

func TestOversubscribedBuild(t *testing.T) {
	cfg := smallConfig()
	cfg.Oversub = 4
	cfg.OneShot = &OneShot{At: eventq.Millisecond, Senders: 8, FlowsPerSender: 1, Bytes: 20_000}
	cfg.Duration = 30 * eventq.Millisecond
	cfg.Drain = 500 * eventq.Millisecond
	r := Build(cfg).Run()
	if r.QueriesDone != 1 {
		t.Fatalf("oversubscribed incast incomplete: %s", r)
	}
}

func TestConfigValidationPanics(t *testing.T) {
	cases := []func(c *Config){
		func(c *Config) { c.LinkRate = 0 },
		func(c *Config) { c.BufferPkts = 0 },
		func(c *Config) { c.Buffer = BufferPFabric; c.DIBS = true },
		func(c *Config) { c.Duration = 0 },
		func(c *Config) { c.TTL = 1 },
		func(c *Config) { c.Topo = "mesh" },
		func(c *Config) { c.Policy = "psychic" },
	}
	for i, mutate := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d should panic", i)
				}
			}()
			cfg := smallConfig()
			mutate(&cfg)
			Build(cfg)
		}()
	}
}

func TestDetourPoliciesAllRun(t *testing.T) {
	for _, pol := range []DetourPolicy{PolicyRandom, PolicyLoadAware, PolicyFlowBased, PolicyProbabilistic} {
		cfg := smallConfig()
		cfg.Policy = pol
		if pol == PolicyProbabilistic {
			cfg.Transport = transport.PFabric // the only priority-tagged traffic
		}
		cfg.OneShot = &OneShot{At: eventq.Millisecond, Senders: 12, FlowsPerSender: 2, Bytes: 20_000}
		cfg.Duration = 30 * eventq.Millisecond
		cfg.Drain = 300 * eventq.Millisecond
		r := Build(cfg).Run()
		if r.QueriesDone != 1 {
			t.Fatalf("%s: incast incomplete: %s", pol, r)
		}
		if r.NetworkDrops() != 0 {
			t.Fatalf("%s: dropped: %s", pol, r)
		}
	}
}

func TestResultsString(t *testing.T) {
	cfg := smallConfig()
	cfg.Query = incastQuery(200, 8, 20_000)
	r := Build(cfg).Run()
	if s := r.String(); s == "" {
		t.Fatal("empty results string")
	}
}

func TestStartFlowPanics(t *testing.T) {
	n := Build(smallConfig())
	hosts := n.Topo.Hosts()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("self-flow should panic")
			}
		}()
		n.StartFlow(hosts[0], hosts[0], 100, metrics.ClassBackground, -1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("switch endpoint should panic")
			}
		}()
		n.StartFlow(n.Topo.Switches()[0], hosts[0], 100, metrics.ClassBackground, -1)
	}()
}
