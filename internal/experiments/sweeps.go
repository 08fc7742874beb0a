package experiments

import (
	"dibs/internal/eventq"
	"dibs/internal/netsim"
	"dibs/internal/switching"
	"dibs/internal/transport"
	"dibs/internal/workload"
)

func init() {
	for _, s := range sweeps {
		register(s.id, s.title, s.run)
	}
}

// markAtFor keeps the ECN threshold below tiny buffers.
func markAtFor(buffer int) int {
	if buffer < 20 {
		return (buffer + 1) / 2
	}
	return 20
}

func setBuffer(c *netsim.Config, pkts int) { c.BufferPkts, c.MarkAtPkts = pkts, markAtFor(pkts) }

// bgEvery10ms is the heavy background of Figures 12 and 13.
func bgEvery10ms(c *netsim.Config) { c.BGInterarrival = 10 * eventq.Millisecond }

// drain1500ms lets the overloaded runs of Figures 14 and 15 finish.
func drain1500ms(c *netsim.Config) { c.Drain = 1500 * eventq.Millisecond }

func degree(c *netsim.Config, d int) { c.Query = query(300, d, 20_000) }

// cioqSwitch is a CIOQ switch with the small egress queues of such designs.
func cioqSwitch(c *netsim.Config) { c.Arch, c.BufferPkts, c.MarkAtPkts = netsim.ArchCIOQ, 32, 10 }

// The sweeps in paper order: §5.3-§5.8, then the ablations of §4, §6, §7.
var sweeps = []sweep{{
	id: "fig07", title: "QCT vs buffer size, incl. infinite buffers (paper Fig. 7)",
	base: 400 * eventq.Millisecond, xlabel: "buffer(pkts)",
	axis: axis("%d", "buf=%d", setBuffer, 25, 100, 300, 500, 700),
	arms: []arm{
		{" dctcp", func(c *netsim.Config) { c.DIBS = false }},
		{" dctcp-inf", func(c *netsim.Config) { c.DIBS, c.Buffer = false, netsim.BufferInfinite }},
		{" dibs", func(c *netsim.Config) { c.DIBS = true }},
	},
	tables: []tableSpec{{"fig07", "99th percentile QCT vs switch buffer size",
		"paper: DIBS tracks the infinite-buffer baseline even at small buffers, where plain DCTCP degrades badly",
		[]column{{"QCT99-dctcp(ms)", 0, qct99}, {"QCT99-dctcp-inf(ms)", 1, qct99}, {"QCT99-dibs(ms)", 2, qct99}}}},
}, {
	id: "fig08", title: "Variable background traffic (paper Fig. 8)",
	base: 400 * eventq.Millisecond, xlabel: "interarrival(ms)",
	axis: axis("%d", "ia=%dms", func(c *netsim.Config, ia eventq.Time) { c.BGInterarrival = ia * eventq.Millisecond },
		10, 20, 40, 80, 120),
	arms: dctcpVsDIBS,
	tables: []tableSpec{{"fig08", "99th percentile QCT and short-background FCT vs background inter-arrival",
		"paper: DIBS cuts QCT99 by ~20ms at every BG intensity; FCT99 rises <2ms (low collateral damage)", qctFct()}},
}, {
	id: "fig09", title: "Variable query arrival rate (paper Fig. 9)",
	base: 400 * eventq.Millisecond, xlabel: "qps",
	axis: axis("%g", "qps=%g", func(c *netsim.Config, qps float64) { c.Query = query(qps, 40, 20_000) },
		300, 500, 1000, 1500, 2000),
	arms: dctcpVsDIBS,
	tables: []tableSpec{{"fig09", "99th percentile QCT and short-background FCT vs query arrival rate",
		"paper: DIBS improves QCT99 ~20ms across rates; at 2000qps DIBS also improves FCT99", qctFct(),
	}, {"fig09-detours", "Detour accounting vs query rate (§5.4.2 claims)",
		"paper: >99% of detoured packets belong to query traffic; DIBS has (virtually) no drops while DCTCP drops thousands",
		[]column{
			{"detoured-frac", 1, func(r *netsim.Results) float64 { return r.DetouredFrac }},
			{"query-share-of-detours", 1, func(r *netsim.Results) float64 {
				if r.Detours == 0 {
					return 0
				}
				return float64(r.Collector.DetoursByClass[0]) / float64(r.Detours)
			}},
			{"drops-dibs", 1, netDrops}, {"drops-dctcp", 0, netDrops},
		}}},
}, {
	id: "fig10", title: "Variable query response size (paper Fig. 10)",
	base: 400 * eventq.Millisecond, xlabel: "response(KB)",
	axis: axis("%d", "size=%dKB", func(c *netsim.Config, kb int64) { c.Query = query(300, 40, kb*1000) },
		20, 30, 40, 50),
	arms: dctcpVsDIBS,
	tables: []tableSpec{{"fig10", "99th percentile QCT and short-background FCT vs response size",
		"paper: the QCT improvement shrinks as responses grow (21ms at 20KB -> 6ms at 50KB); FCT collateral grows slightly", qctFct()}},
}, {
	id: "fig11", title: "Variable incast degree (paper Fig. 11)",
	base: 400 * eventq.Millisecond, xlabel: "degree",
	axis: axis("%d", "degree=%d", degree, 40, 60, 80, 100),
	arms: dctcpVsDIBS,
	tables: []tableSpec{{"fig11", "99th percentile QCT and short-background FCT vs incast degree",
		"paper: the QCT improvement grows with degree (22ms at 40 -> 33ms at 100); high degree hurts DCTCP far more than DIBS", qctFct(),
	}, {"fig11-detours", "Detours per packet vs incast degree (§5.4.4 burstiness claim)",
		"paper: at degree 100, 1% of packets detour 40+ times (vs ~10 for the same bytes via larger responses)",
		[]column{
			{"p99-detours-per-detoured-pkt", 1, func(r *netsim.Results) float64 { return r.DetourP99 }},
			{"max-detours", 1, func(r *netsim.Results) float64 { return float64(r.MaxDetours) }},
		}}},
}, {
	id: "fig12", title: "Variable buffer size under heavy background (paper Fig. 12)",
	base: 250 * eventq.Millisecond, common: bgEvery10ms, xlabel: "buffer(pkts)",
	axis: axis("%d", "buf=%d", setBuffer, 1, 5, 10, 25, 40, 100, 200),
	arms: dctcpVsDIBS,
	tables: []tableSpec{{"fig12a", "99th percentile short-background FCT vs buffer size (BG inter-arrival 10ms)",
		"paper: no FCT collateral damage at any buffer size",
		[]column{{"FCT99-dctcp(ms)", 0, fct99}, {"FCT99-dibs(ms)", 1, fct99}},
	}, {"fig12b", "99th percentile QCT vs buffer size (BG inter-arrival 10ms)",
		"paper: DIBS absorbs bursts in neighboring switches, so its QCT stays low even with 1-packet buffers where DCTCP's QCT explodes",
		[]column{{"QCT99-dctcp(ms)", 0, qct99}, {"QCT99-dibs(ms)", 1, qct99}}}},
}, {
	id: "fig13", title: "Variable max TTL (paper Fig. 13)",
	base: 250 * eventq.Millisecond, common: bgEvery10ms, xlabel: "ttl",
	axis: axis("%d", "ttl=%d", func(c *netsim.Config, ttl int) { c.TTL = ttl }, 12, 24, 36, 48, 255),
	arms: dctcpVsDIBS,
	tables: []tableSpec{{"fig13", "Variable max TTL: limiting detours (BG inter-arrival 10ms)",
		"paper: DIBS QCT improves with larger TTL (small TTLs force drops of already-detoured packets); TTL has no effect on DCTCP and little on background FCT",
		qctFct(column{"ttl-drops-dibs", 1, func(r *netsim.Results) float64 { return float64(r.Drops[switching.DropTTL]) }})}},
}, {
	id: "fig14", title: "Extreme query intensity — where DIBS breaks (paper Fig. 14)",
	base: 100 * eventq.Millisecond, common: drain1500ms, xlabel: "qps",
	axis: axis("%g", "qps=%g", func(c *netsim.Config, qps float64) { c.Query = query(qps, 40, 20_000) },
		6000, 8000, 10000, 12000, 14000),
	arms: dctcpVsDIBS,
	tables: []tableSpec{{"fig14", "Extreme query intensity: QCT and background FCT (DIBS breaking point)",
		"paper: past ~10000 qps detoured packets cannot leave the network; queues build everywhere and DIBS hurts both traffic classes",
		qctFct(
			column{"dibs-forced-drops", 1, func(r *netsim.Results) float64 { return float64(r.Drops[switching.DropNoDetour]) }},
			column{"dibs-qdone-frac", 1, func(r *netsim.Results) float64 {
				if r.QueriesStarted == 0 {
					return 0
				}
				return float64(r.QueriesDone) / float64(r.QueriesStarted)
			}})}},
}, {
	id: "fig15", title: "Large query response sizes at 2000 qps (paper Fig. 15)",
	base: 80 * eventq.Millisecond, common: drain1500ms, xlabel: "response(KB)",
	axis: axis("%d", "size=%dKB", func(c *netsim.Config, kb int64) { c.Query = query(2000, 40, kb*1000) },
		60, 80, 100, 120, 160),
	arms: dctcpVsDIBS,
	tables: []tableSpec{{"fig15", "Large responses at 2000 qps: DIBS does not break",
		"paper: multi-RTT responses give DCTCP time to throttle senders, so DIBS keeps its advantage and never collapses", qctFct()}},
}, {
	id: "fig16", title: "DIBS vs pFabric under mixed traffic (paper Fig. 16)",
	base: 400 * eventq.Millisecond, xlabel: "qps",
	axis: axis("%g", "qps=%g", func(c *netsim.Config, qps float64) { c.Query = query(qps, 40, 20_000) },
		300, 500, 1000, 1500, 2000),
	arms: []arm{{" pfabric", func(c *netsim.Config) {
		c.DIBS, c.Buffer, c.BufferPkts, c.MarkAtPkts = false, netsim.BufferPFabric, 24, 0
		c.Transport = transport.PFabric
	}}, {" dibs", nil}},
	tables: []tableSpec{{"fig16a", "99th percentile background FCT: pFabric vs DCTCP+DIBS",
		"paper: pFabric starves long background flows at high query rates (short flows outrank them); DIBS does not prioritize, so background FCT stays low",
		[]column{
			{"FCT99-pfabric(ms)", 0, fct99}, {"FCT99-dibs(ms)", 1, fct99},
			{"BGFCT99-pfabric(ms)", 0, bgFCT99}, {"BGFCT99-dibs(ms)", 1, bgFCT99},
		},
	}, {"fig16b", "99th percentile QCT: pFabric vs DCTCP+DIBS",
		"paper: QCTs are comparable, and at high qps DIBS edges out pFabric, which drops and retransmits heavily",
		[]column{{"QCT99-pfabric(ms)", 0, qct99}, {"QCT99-dibs(ms)", 1, qct99}}}},
}, {
	id: "dba", title: "Shared-buffer (DBA) switches (paper §5.5.2)",
	base:   300 * eventq.Millisecond,
	common: func(c *netsim.Config) { c.Buffer = netsim.BufferShared },
	xlabel: "degree",
	axis: axis("%d", "degree=%d", func(c *netsim.Config, d int) {
		// Beyond 127 responders the generator reuses hosts via multiple
		// connections, as §5.5.2 does.
		c.Query = &workload.QueryConfig{QPS: 300, Degree: d, ResponseBytes: 20_000, MaxFanInPerHost: 3}
	}, 40, 100, 150, 250),
	arms: dctcpVsDIBS,
	tables: []tableSpec{{"dba", "Dynamic buffer allocation (shared 1133-packet pool per switch)",
		"paper: DBA alone absorbs moderate incast with zero loss (DIBS idle); past ~degree 150 DBA overflows and drops while DIBS still avoids loss, cutting QCT99 by ~75%",
		[]column{
			{"drops-dba", 0, totalDrops}, {"drops-dba+dibs", 1, netDrops},
			{"QCT99-dba(ms)", 0, qct99}, {"QCT99-dba+dibs(ms)", 1, qct99}, {"detours-dibs", 1, detours},
		}}},
}, {
	id: "oversub", title: "Oversubscribed fat-tree (paper §5.5.4)",
	base: 400 * eventq.Millisecond, xlabel: "oversubscription",
	axis: []setting{
		{"1:1", "1:1", func(c *netsim.Config) { c.Oversub = 1 }},
		{"1:4", "1:4", func(c *netsim.Config) { c.Oversub = 2 }},
		{"1:9", "1:9", func(c *netsim.Config) { c.Oversub = 3 }},
		{"1:16", "1:16", func(c *netsim.Config) { c.Oversub = 4 }},
	},
	arms: dctcpVsDIBS,
	tables: []tableSpec{{"oversub", "Oversubscribed fat-tree: DIBS improvement persists",
		"paper: DIBS lowers QCT99 by ~20ms at every oversubscription; the last downstream hop stays the bottleneck, where DIBS prevents loss", qctFct()}},
}, {
	id: "fair", title: "Jain's fairness index for long-lived flows (paper §5.6)",
	base: 150 * eventq.Millisecond,
	common: func(c *netsim.Config) {
		c.Drain, c.BGInterarrival, c.Query = 0, 0, nil
	},
	xlabel: "flows-per-pair",
	axis: axis("%d", "n=%d", func(c *netsim.Config, n int) { c.Long = &netsim.LongFlows{PerPair: n} },
		1, 2, 4, 8, 16),
	arms: []arm{{" adjacent", nil}, {" shuffled", func(c *netsim.Config) {
		l := *c.Long
		l.Shuffle = true
		c.Long = &l
	}}},
	tables: []tableSpec{{"fair", "Jain's index over long-lived pair flows (K=8, 64 pairs)",
		"paper: Jain's index > 0.9 for all N (node-disjoint pairs). Shuffled pairing adds ECMP path collisions — a harder setting beyond the paper — and shows where flow-level ECMP, not DIBS, causes unfairness",
		[]column{{"jain-adjacent-pairs", 0, jain}, {"jain-shuffled-pairs", 1, jain}}}},
}, {
	// minrto resolves an internal tension in the paper: Table 1 lists a
	// 10ms minRTO while §4 says "we use a default MinRTO value of 1ms".
	// DIBS's tail is insensitive to minRTO (its p99 comes from detour
	// queueing, not timeouts), while DCTCP improves sharply with a small
	// minRTO, narrowing the gap at 1-2ms: DIBS's win is that it does not
	// depend on aggressive timeout tuning.
	id: "minrto", title: "minRTO sensitivity: Table 1's 10ms vs §4's 1ms",
	base: 400 * eventq.Millisecond, xlabel: "minRTO(ms)",
	axis: axis("%d", "%dms", func(c *netsim.Config, rto eventq.Time) { c.MinRTO = rto * eventq.Millisecond },
		1, 2, 5, 10, 20),
	arms: dctcpVsDIBS,
	tables: []tableSpec{{"minrto", "99th percentile QCT vs minRTO (default workload)",
		"DIBS's tail is timeout-independent (detour queueing), so it needs no minRTO tuning; DCTCP needs a 1-2ms minRTO to approach it — §4's point that with DIBS 'the value of the timeout is not important'",
		[]column{
			{"QCT99-dctcp(ms)", 0, qct99}, {"QCT99-dibs(ms)", 1, qct99},
			{"timeouts-dctcp", 0, timeouts}, {"timeouts-dibs", 1, timeouts},
		}}},
}, {
	// cioq checks §4's claim that DIBS drops into a combined input/output
	// queued switch easily: the forwarding engine detours against the small
	// dedicated egress queues (32 packets) while VOQs absorb crossbar
	// contention.
	id: "cioq", title: "DIBS on CIOQ switches (paper §4)",
	base: 300 * eventq.Millisecond, xlabel: "degree",
	axis: axis("%d", "deg=%d", degree, 40, 70, 100),
	arms: []arm{
		{" oq/dctcp", func(c *netsim.Config) { c.Arch, c.DIBS = netsim.ArchOutputQueued, false }},
		{" oq/dibs", func(c *netsim.Config) { c.Arch, c.DIBS = netsim.ArchOutputQueued, true }},
		{" cioq/dctcp", func(c *netsim.Config) { cioqSwitch(c); c.DIBS = false }},
		{" cioq/dibs", func(c *netsim.Config) { cioqSwitch(c); c.DIBS = true }},
	},
	tables: []tableSpec{{"cioq", "Output-queued vs CIOQ switches, with and without DIBS",
		"paper §4: DIBS is architecture-agnostic — on CIOQ it detours at the forwarding engine against the small dedicated egress queues, eliminating the drops the DCTCP-only CIOQ suffers, with the same qualitative win as on output-queued switches",
		[]column{
			{"QCT99-oq-dctcp(ms)", 0, qct99}, {"QCT99-oq-dibs(ms)", 1, qct99},
			{"QCT99-cioq-dctcp(ms)", 2, qct99}, {"QCT99-cioq-dibs(ms)", 3, qct99},
			{"drops-cioq-dctcp", 2, totalDrops}, {"drops-cioq-dibs", 3, netDrops},
		}}},
}, {
	// delack checks that the headline numbers are not an artifact of the
	// per-segment ACKing simplification.
	id: "delack", title: "Per-segment vs DCTCP delayed ACKs (fidelity ablation)",
	base: 400 * eventq.Millisecond, xlabel: "acking",
	axis: []setting{
		{"per-segment", "per-segment", func(c *netsim.Config) { c.DelayedAck = false }},
		{"delayed-2:1", "delayed-2:1", func(c *netsim.Config) { c.DelayedAck = true }},
	},
	arms: oneArm,
	tables: []tableSpec{{"delack", "ACKing fidelity: per-segment vs delayed ACKs (DCTCP+DIBS)",
		"the two ACKing models should agree on the paper's qualitative results; delayed ACKs halve ACK load and slightly change timings",
		[]column{{"QCT99(ms)", 0, qct99}, {"FCT99(ms)", 0, fct99}, {"drops", 0, netDrops}, {"detours", 0, detours}}}},
}, {
	// pfc quantifies §6's qualitative comparison: hop-by-hop pause also
	// avoids loss, but borrows only upstream buffers and its cascading
	// pauses block innocent traffic. PFC and DIBS both run over
	// shared-buffer switches; drop-tail DCTCP is the loss baseline.
	id: "pfc", title: "Ethernet flow control vs DIBS (paper §6)",
	base:   300 * eventq.Millisecond,
	common: func(c *netsim.Config) { c.BGInterarrival = 40 * eventq.Millisecond },
	xlabel: "degree",
	axis:   axis("%d", "deg=%d", degree, 40, 60, 80, 100),
	arms: []arm{
		{" droptail", func(c *netsim.Config) { c.DIBS = false }},
		{" pfc", func(c *netsim.Config) { c.DIBS, c.Buffer, c.PFC = false, netsim.BufferShared, true }},
		{" dibs", nil},
	},
	tables: []tableSpec{{"pfc", "Incast-degree sweep: drop-tail vs PFC vs DIBS",
		"paper §6: PFC also avoids loss but needs threshold tuning and only borrows upstream buffers; pause cascades can head-of-line-block victim flows, while DIBS detours around the hotspot with no parameters",
		[]column{
			{"QCT99-droptail(ms)", 0, qct99}, {"QCT99-pfc(ms)", 1, qct99}, {"QCT99-dibs(ms)", 2, qct99},
			{"FCT99-droptail(ms)", 0, fct99}, {"FCT99-pfc(ms)", 1, fct99}, {"FCT99-dibs(ms)", 2, fct99},
			{"drops-droptail", 0, totalDrops}, {"drops-pfc", 1, totalDrops},
			{"pauses-pfc", 1, func(r *netsim.Results) float64 { return float64(r.PFCPauses) }},
		}}},
}, {
	// spray quantifies §6's "even packet-level, load-aware routing will not
	// help [incast], while DIBS can": the receiver's last hop still has one
	// path, so its edge switch overflows all the same.
	id: "spray", title: "Packet-level ECMP vs DIBS under incast (paper §6)",
	base: 300 * eventq.Millisecond, xlabel: "degree",
	axis: axis("%d", "deg=%d", degree, 40, 70, 100),
	arms: []arm{
		{" ecmp", func(c *netsim.Config) { c.DIBS = false }},
		{" spray", func(c *netsim.Config) { c.DIBS, c.PacketSpray = false, true }},
		{" dibs", func(c *netsim.Config) { c.DIBS = true }},
	},
	tables: []tableSpec{{"spray", "Incast-degree sweep: flow-level ECMP vs packet spraying vs DIBS",
		"paper §6: spraying balances core links but cannot add capacity at the receiver's single downlink, so incast drops persist; DIBS absorbs them in neighbor buffers",
		[]column{
			{"QCT99-ecmp(ms)", 0, qct99}, {"QCT99-spray(ms)", 1, qct99}, {"QCT99-dibs(ms)", 2, qct99},
			{"drops-ecmp", 0, totalDrops}, {"drops-spray", 1, totalDrops}, {"drops-dibs", 2, netDrops},
		}}},
}, {
	// policies leaves out §7's probabilistic detouring, which is not
	// implemented: it would detour early only priority-tagged packets,
	// which this DCTCP workload has none of, and so repeat the random row.
	id: "policies", title: "Detour-policy ablation (paper §7)",
	base:   300 * eventq.Millisecond,
	common: func(c *netsim.Config) { c.Query = query(1000, 40, 20_000) },
	xlabel: "policy",
	axis: append([]setting{{"droptail", "droptail", func(c *netsim.Config) { c.DIBS = false }}},
		axis("%s", "%s", func(c *netsim.Config, p netsim.DetourPolicy) { c.Policy = p },
			netsim.PolicyRandom, netsim.PolicyLoadAware, netsim.PolicyFlowBased)...),
	arms: oneArm,
	tables: []tableSpec{{"policies", "Detour policies under heavy incast (1000 qps, degree 40)",
		"paper §7 proposes these variants without evaluating them; random is the parameter-free default and the others trade small QCT differences for implementation complexity",
		[]column{{"QCT99(ms)", 0, qct99}, {"FCT99(ms)", 0, fct99}, {"detours", 0, detours}, {"drops", 0, netDrops}}}},
}, {
	id: "topos", title: "DIBS on other topologies (paper §7)",
	base: 300 * eventq.Millisecond,
	common: func(c *netsim.Config) {
		c.BGInterarrival = 0
		c.Query = query(500, 10, 20_000)
	},
	xlabel: "topology",
	axis: []setting{
		{"fattree-k4", "fattree-k4", func(c *netsim.Config) { c.Topo, c.FatTreeK = netsim.TopoFatTree, 4 }},
		{"jellyfish", "jellyfish", func(c *netsim.Config) {
			c.Topo, c.JellyfishSwitches, c.JellyfishDegree, c.JellyfishHostsPer = netsim.TopoJellyfish, 16, 4, 4
		}},
		{"hyperx-4x4", "hyperx-4x4", func(c *netsim.Config) {
			c.Topo, c.HyperXX, c.HyperXY, c.HyperXHostsPer = netsim.TopoHyperX, 4, 4, 4
		}},
		{"linear-8", "linear-8", func(c *netsim.Config) { c.Topo, c.LinearSwitches, c.LinearHostsPer = netsim.TopoLinear, 8, 4 }},
	},
	arms: dctcpVsDIBS,
	tables: []tableSpec{{"topos", "DIBS across topologies (incast via query traffic)",
		"paper §7: richer path diversity (HyperX, Jellyfish) gives DIBS more detour options; even the linear chain works, detouring backwards (footnote 10)",
		[]column{
			// A Build without Run is cheap: it only sizes the topology.
			{"hosts", 0, func(r *netsim.Results) float64 { return float64(len(netsim.Build(r.Cfg).Topo.Hosts())) }},
			{"QCT99-dctcp(ms)", 0, qct99}, {"QCT99-dibs(ms)", 1, qct99},
			{"drops-dctcp", 0, totalDrops}, {"drops-dibs", 1, netDrops},
		}}},
}, {
	id: "dupack", title: "Dup-ack threshold instead of disabling fast retransmit (paper §4)",
	base: 300 * eventq.Millisecond, xlabel: "dupack-threshold",
	axis: append([]setting{{"disabled", "disabled", func(c *netsim.Config) { c.DupAckThresh = 0 }}},
		axis("%d", "%d", func(c *netsim.Config, th int) { c.DupAckThresh = th }, 3, 10, 20)...),
	arms: oneArm,
	tables: []tableSpec{{"dupack", "Reordering tolerance: dup-ack threshold with DIBS (paper §4)",
		"paper: detour-induced reordering makes threshold 3 fire spurious fast retransmits; a threshold >= 10 (or disabling it) suffices",
		[]column{
			{"QCT99(ms)", 0, qct99}, {"FCT99(ms)", 0, fct99},
			{"spurious-rexmits", 0, func(r *netsim.Results) float64 { return float64(r.Retransmits) }},
			{"timeouts", 0, timeouts},
		}}},
}}
