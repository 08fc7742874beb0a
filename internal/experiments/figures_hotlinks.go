package experiments

import (
	"fmt"

	"dibs/internal/eventq"
	"dibs/internal/metrics"
	"dibs/internal/netsim"
	"dibs/internal/packet"
	"dibs/internal/runner"
	"dibs/internal/stats"
	"dibs/internal/topology"
	"dibs/internal/workload"
)

func init() {
	register("fig04", "Hot-link sparsity across workload intensities (paper Fig. 4)", fig04)
	register("fig05", "Free buffer near hot links (paper Fig. 5)", fig05)
}

// hotWorkloads are the paper's baseline / heavy / extreme query rates.
var hotWorkloads = []struct {
	name string
	qps  float64
	base eventq.Time
}{
	{"baseline-300qps", 300, 300 * eventq.Millisecond},
	{"heavy-2000qps", 2000, 250 * eventq.Millisecond},
	{"extreme-10000qps", 10000, 80 * eventq.Millisecond},
}

// hotRun is one monitored workload run: the network (for the topology)
// plus its results (monitors and the log line).
type hotRun struct {
	net *netsim.Network
	res *netsim.Results
}

// runHotWorkloads runs all three paper workloads through the runner,
// returning networks in workload order; log lines follow collection order.
func runHotWorkloads(o *Opts, buffers bool) []hotRun {
	runs := runner.Map(o.Workers, len(hotWorkloads), func(i int) hotRun {
		w := hotWorkloads[i]
		cfg := o.paperConfig(w.base)
		cfg.Query = &workload.QueryConfig{QPS: w.qps, Degree: 40, ResponseBytes: 20_000}
		cfg.UtilWindow = 10 * eventq.Millisecond
		if buffers {
			cfg.BufferSamplePeriod = 10 * eventq.Millisecond
		}
		cfg.Drain = 100 * eventq.Millisecond
		n := netsim.Build(cfg)
		return hotRun{net: n, res: n.Run()}
	})
	for i, r := range runs {
		o.logf("hotlinks qps=%g: %s", hotWorkloads[i].qps, r.res)
	}
	return runs
}

// hotThreshold matches the paper's Fig. 4 criterion: utilization >= 90%.
const hotThreshold = 0.9

func fig04(o Opts) []*Table {
	o.normalize()
	t := &Table{
		ID:      "fig04",
		Title:   "CDF over 10ms windows of the fraction of links hot (util >= 90%)",
		XLabel:  "frac-links-hot<=",
		Columns: []string{"baseline-300qps", "heavy-2000qps", "extreme-10000qps"},
	}
	var samples []*stats.Sample
	for _, run := range runHotWorkloads(&o, false) {
		var s stats.Sample
		s.AddAll(run.res.Collector.Util.HotFractions(hotThreshold))
		samples = append(samples, &s)
	}
	for _, x := range []float64{0, 0.01, 0.02, 0.05, 0.10, 0.20, 0.50} {
		vals := make([]float64, len(samples))
		for i, s := range samples {
			vals[i] = s.FractionBelow(x)
		}
		t.AddRow(fmt.Sprintf("%.2f", x), vals...)
	}
	t.Note("paper: congestion is sparse — in the baseline almost all windows have under a few %% of links hot; the extreme workload shifts the CDF right")
	return []*Table{t}
}

func fig05(o Opts) []*Table {
	o.normalize()
	t := &Table{
		ID:     "fig05",
		Title:  "CDF of free-buffer fraction in switches near hot links (1-hop / 2-hop)",
		XLabel: "free-frac<=",
		Columns: []string{
			"baseline-1hop", "baseline-2hop",
			"heavy-1hop", "heavy-2hop",
			"extreme-1hop", "extreme-2hop",
		},
	}
	var samples []*stats.Sample
	for _, run := range runHotWorkloads(&o, true) {
		one, two := neighborhoodAvailability(run.net, run.res.Collector)
		samples = append(samples, one, two)
	}
	for _, x := range []float64{0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 1.0} {
		vals := make([]float64, len(samples))
		for i, s := range samples {
			vals[i] = s.FractionBelow(x)
		}
		t.AddRow(fmt.Sprintf("%.2f", x), vals...)
	}
	t.Note("paper: even in the heavy workload ~80%% of buffers near a congested link are empty; only the extreme (breaking) workload exhausts the neighborhood")
	return []*Table{t}
}

// neighborhoodAvailability pairs each utilization window with the buffer
// snapshot taken at the same instant and, for every hot link, computes the
// fraction of free buffer slots across the switches within one and two hops
// of the link's endpoints.
func neighborhoodAvailability(n *netsim.Network, c *metrics.Collector) (oneHop, twoHop *stats.Sample) {
	oneHop, twoHop = &stats.Sample{}, &stats.Sample{}
	util := c.Util
	buf := c.Buf
	if util == nil || buf == nil {
		panic("experiments: monitors not enabled")
	}
	// Queue lengths per switch for one snapshot.
	capPkts := n.Cfg.BufferPkts
	ports := buf.Ports()
	windows := len(util.Windows)
	if windows > len(buf.Snapshots) {
		windows = len(buf.Snapshots)
	}
	// Per-switch port index ranges in the sampler's flat port list.
	type swRange struct{ lo, hi int }
	ranges := map[packet.NodeID]swRange{}
	for i, p := range ports {
		r, ok := ranges[p.Node]
		if !ok {
			ranges[p.Node] = swRange{i, i + 1}
			continue
		}
		r.hi = i + 1
		ranges[p.Node] = r
	}
	avail := func(snap []int, sws map[packet.NodeID]bool) float64 {
		total, used := 0, 0
		for sw := range sws {
			r := ranges[sw]
			for i := r.lo; i < r.hi; i++ {
				total += capPkts
				used += snap[i]
			}
		}
		if total == 0 {
			return 1
		}
		f := 1 - float64(used)/float64(total)
		if f < 0 {
			f = 0
		}
		return f
	}
	for w := 0; w < windows; w++ {
		snap := buf.Snapshots[w].Len
		for _, pi := range util.HotPorts(w, hotThreshold) {
			ref := util.Ports()[pi]
			ends := []packet.NodeID{ref.Node}
			peer := n.Topo.Ports(ref.Node)[ref.Port].Peer
			if n.Topo.Node(peer).Kind == topology.Switch {
				ends = append(ends, peer)
			}
			one := map[packet.NodeID]bool{}
			for _, e := range ends {
				one[e] = true
				for _, nb := range n.Topo.Neighbors(e) {
					one[nb] = true
				}
			}
			two := map[packet.NodeID]bool{}
			for sw := range one {
				two[sw] = true
			}
			for sw := range one {
				for _, nb := range n.Topo.Neighbors(sw) {
					two[nb] = true
				}
			}
			oneHop.Add(avail(snap, one))
			twoHop.Add(avail(snap, two))
		}
	}
	return oneHop, twoHop
}
