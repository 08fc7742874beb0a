package netsim

import (
	"encoding/json"
	"testing"

	"dibs/internal/eventq"
)

// FuzzConfigJSON decodes arbitrary JSON into a Config. Validate must judge
// every decoded Config without panicking, and a Config it accepts that is
// small enough to run here must build into the topology its geometry
// promises and run with the packet-accounting identity intact: every pool
// return happened on a terminal path.
//
// The seed corpus (run by plain go test) is the paper default, which is
// too large to run, and three runnable configs: a Click one-shot, a hybrid
// fat-tree and a 2-shard fat-tree. Explore further with
//
//	go test -run '^$' -fuzz FuzzConfigJSON -fuzztime 2m ./internal/netsim
func FuzzConfigJSON(f *testing.F) {
	def := DefaultConfig()

	click := DefaultConfig()
	click.Topo = TopoClick
	click.Query = nil
	click.BGInterarrival = 0
	click.OneShot = &OneShot{At: eventq.Millisecond, Senders: 5, FlowsPerSender: 2, Bytes: 20_000}
	click.Duration = 5 * eventq.Millisecond
	click.Drain = 15 * eventq.Millisecond

	hybrid := smallConfig()
	hybrid.Mode = ModeHybrid
	hybrid.Long = &LongFlows{PerPair: 1}
	hybrid.HostMarkAtPkts = 20
	hybrid.FluidMinBytes = 100_000
	hybrid.FluidStableWindows = 2
	hybrid.Query = incastQuery(500, 6, 20_000)
	hybrid.Duration = 10 * eventq.Millisecond
	hybrid.Drain = 10 * eventq.Millisecond

	sharded := smallConfig()
	sharded.Shards = 2
	sharded.LinkDelay = 100 * eventq.Microsecond
	sharded.BGInterarrival = 5 * eventq.Millisecond
	sharded.Query = incastQuery(2000, 8, 20_000)
	sharded.TraceEvents = true
	sharded.Duration = 10 * eventq.Millisecond
	sharded.Drain = 10 * eventq.Millisecond

	for _, c := range []Config{def, click, hybrid, sharded} {
		b, err := json.Marshal(c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var cfg Config
		if json.Unmarshal(data, &cfg) != nil {
			return
		}
		if cfg.Validate() != nil || !runnableInFuzz(&cfg) {
			return
		}
		n := Build(cfg)
		hosts, _ := cfg.geometry()
		if got := len(n.Topo.Hosts()); got != hosts {
			t.Fatalf("built %d hosts, geometry promised %d", got, hosts)
		}
		r := n.Run()
		if !terminalsAccountForReturns(t, r) {
			t.Fatalf("packet accounting broken: %s", r)
		}
	})
}

// runnableInFuzz reports whether an accepted config is cheap enough to
// build and run in one fuzz iteration: at most 16 hosts and 40 switches,
// 20 ms of simulated time, and bounded flow counts, link rate and sampling
// rates. Validate accepts far larger configs; they are only too slow here.
func runnableInFuzz(c *Config) bool {
	const horizon = 20 * eventq.Millisecond
	const maxFlows = 2000
	hosts, _ := c.geometry()
	if hosts > 16 || switchesInFuzz(c) > 40 ||
		c.Duration > horizon || c.Drain > horizon-c.Duration ||
		c.LinkRate > 10_000_000_000 {
		return false
	}
	// A sharded run costs a barrier per lookahead window of one link
	// delay, and a barrier parks (about 0.1 ms) whenever another fuzz
	// worker holds a core: at most 200 windows.
	if c.Shards > 1 && c.LinkDelay < horizon/200 {
		return false
	}
	if q := c.Query; q != nil && q.QPS*c.Duration.Seconds()*float64(q.Degree) > maxFlows {
		return false
	}
	if os := c.OneShot; os != nil && (os.FlowsPerSender > maxFlows || os.Senders*os.FlowsPerSender > maxFlows) {
		return false
	}
	if c.Long != nil && c.Long.PerPair > 4 {
		return false
	}
	for _, period := range []eventq.Time{c.UtilWindow, c.BufferSamplePeriod, c.FluidTick} {
		if period != 0 && period < 10*eventq.Microsecond {
			return false
		}
	}
	return c.BGInterarrival == 0 || c.BGInterarrival >= 200*eventq.Microsecond
}

// switchesInFuzz is the switch count of c's topology, saturating instead of
// overflowing.
func switchesInFuzz(c *Config) int {
	switch c.Topo {
	case TopoFatTree:
		if c.FatTreeK > 64 {
			return 1 << 30
		}
		return 5 * c.FatTreeK * c.FatTreeK / 4
	case TopoLinear:
		return c.LinearSwitches
	case TopoJellyfish:
		return c.JellyfishSwitches
	case TopoHyperX:
		if c.HyperXX > 1<<15 || c.HyperXY > 1<<15 {
			return 1 << 30
		}
		return c.HyperXX * c.HyperXY
	}
	return 0
}
