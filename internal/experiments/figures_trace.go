package experiments

import (
	"fmt"
	"sort"

	"dibs/internal/eventq"
	"dibs/internal/netsim"
	"dibs/internal/topology"
	"dibs/internal/trace"
	"dibs/internal/workload"
)

func init() {
	register("fig01", "Path of the most-detoured packet (paper Fig. 1)", fig01)
	register("fig02", "Detour timeline and pod buffer occupancy during a burst (paper Fig. 2)", fig02)
}

// fig01 samples packet traces under a bursty workload and reports the
// per-arc traversal counts of the most-detoured traced packet delivered,
// the analogue of the paper's Figure 1 path diagram. The note's detour
// count is that packet's own, so it equals the via-detour column's sum.
func fig01(o Opts) []*Table {
	o.normalize()
	cfg := o.paperConfig(200 * eventq.Millisecond)
	cfg.Query = &workload.QueryConfig{QPS: 1500, Degree: 60, ResponseBytes: 20_000}
	cfg.TraceEveryNth = 5
	n := netsim.Build(cfg)
	r := n.Run()
	o.logf("fig01: %s", r)

	t := &Table{
		ID:      "fig01",
		Title:   "Arc traversal counts for the most-detoured traced packet",
		XLabel:  "arc",
		Columns: []string{"traversals", "via-detour"},
	}
	c := r.Collector
	trace := c.BestTrace
	if len(trace) == 0 {
		t.Note("no detoured packet was traced at this scale; rerun with a larger -scale")
		return []*Table{t}
	}
	type arcStat struct{ total, detoured int }
	arcs := map[string]*arcStat{}
	var order []string
	for _, hop := range trace {
		from := n.Topo.Node(hop.Node).Name
		to := n.Topo.Node(n.Topo.Ports(hop.Node)[hop.Port].Peer).Name
		key := from + " -> " + to
		s, ok := arcs[key]
		if !ok {
			s = &arcStat{}
			arcs[key] = s
			order = append(order, key)
		}
		s.total++
		if hop.Detoured {
			s.detoured++
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if arcs[order[i]].total != arcs[order[j]].total {
			return arcs[order[i]].total > arcs[order[j]].total
		}
		return order[i] < order[j]
	})
	for _, k := range order {
		t.AddRow(k, float64(arcs[k].total), float64(arcs[k].detoured))
	}
	t.Note("packet detoured %d times over %d switch hops before delivery (paper's example: 15 detours)",
		c.BestDetours, len(trace))
	return []*Table{t}
}

// fig02 reproduces the network-wide example of §2: a large synchronized
// burst toward one host, showing (a) detour decisions per switch layer over
// time and (b) queue occupancy in the target pod at three instants.
func fig02(o Opts) []*Table {
	o.normalize()
	cfg := netsim.DefaultConfig()
	cfg.Seed = o.Seed
	cfg.BGInterarrival = 0
	cfg.Query = nil
	cfg.OneShot = &netsim.OneShot{
		At:             eventq.Millisecond,
		Senders:        100,
		FlowsPerSender: 1,
		Bytes:          20_000,
	}
	cfg.TraceEvents = true
	cfg.BufferSamplePeriod = 250 * eventq.Microsecond
	cfg.Duration = 10 * eventq.Millisecond
	cfg.Drain = 500 * eventq.Millisecond
	n := netsim.Build(cfg)
	r := n.Run()
	o.logf("fig02: %s", r)
	detours := trace.Filter(r.Collector.Events.Events(), func(e trace.Event) bool { return e.Kind == trace.KindDetour })

	timeline := &Table{
		ID:      "fig02a",
		Title:   "Detour decisions per 0.5ms bucket, by switch layer",
		XLabel:  "t(ms)",
		Columns: []string{"edge", "aggr", "core"},
	}
	const bucket = 500 * eventq.Microsecond
	counts := map[int][3]int{}
	maxB := 0
	for _, ev := range detours {
		b := int(ev.T / bucket)
		if b > maxB {
			maxB = b
		}
		c := counts[b]
		switch n.Topo.Node(ev.Node).Layer {
		case topology.LayerEdge:
			c[0]++
		case topology.LayerAggr:
			c[1]++
		case topology.LayerCore:
			c[2]++
		}
		counts[b] = c
	}
	for b := 0; b <= maxB; b++ {
		c := counts[b]
		timeline.AddRow(fmt.Sprintf("%.1f", float64(b)*bucket.Millis()),
			float64(c[0]), float64(c[1]), float64(c[2]))
	}
	timeline.Note("paper Fig 2a: aggregation switches detour during the burst peak; the target's edge switch keeps detouring longest")

	occupancy := &Table{
		ID:      "fig02b",
		Title:   "Target-pod queue occupancy at burst start (t1), peak (t2), late (t3)",
		XLabel:  "instant",
		Columns: []string{"edge-pkts", "aggr-pkts", "full-ports", "detours-in-bucket"},
	}
	hosts := n.Topo.Hosts()
	target := hosts[len(hosts)-1]
	pod := n.Topo.Node(n.Topo.Ports(target)[0].Peer).Pod
	snaps := r.Collector.Buf.Snapshots
	if len(snaps) > 0 && len(detours) > 0 {
		first := detours[0].T
		last := detours[len(detours)-1].T
		peak := first
		best := 0
		for b, c := range counts {
			if tot := c[0] + c[1] + c[2]; tot > best {
				best = tot
				peak = eventq.Time(b) * bucket
			}
		}
		for _, inst := range []struct {
			name string
			at   eventq.Time
		}{{"t1-start", first}, {"t2-peak", peak}, {"t3-late", (peak + last) / 2}} {
			si := sort.Search(len(snaps), func(i int) bool { return snaps[i].T >= inst.at })
			if si == len(snaps) {
				si--
			}
			snap := snaps[si]
			edge, aggr, full := 0, 0, 0
			for i, ref := range r.Collector.Buf.Ports() {
				nd := n.Topo.Node(ref.Node)
				if nd.Pod != pod {
					continue
				}
				switch nd.Layer {
				case topology.LayerEdge:
					edge += snap.Len[i]
				case topology.LayerAggr:
					aggr += snap.Len[i]
				}
				if snap.Full[i] {
					full++
				}
			}
			c := counts[int(inst.at/bucket)]
			occupancy.AddRow(fmt.Sprintf("%s(%.1fms)", inst.name, inst.at.Millis()),
				float64(edge), float64(aggr), float64(full), float64(c[0]+c[1]+c[2]))
		}
	}
	occupancy.Note("paper Fig 2b: buffers in the target pod fill at t2 (edge + all aggr detouring), then drain by t3 with only the edge switch still detouring; burst absorbed without loss (drops=%d)", r.NetworkDrops())
	return []*Table{timeline, occupancy}
}
