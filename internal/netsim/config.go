// Package netsim assembles the full simulated data center — topology,
// switches, hosts, transports, workloads, and instrumentation — and runs
// one experiment end to end, returning the measurements the paper reports.
package netsim

import (
	"errors"
	"fmt"

	"dibs/internal/eventq"
	"dibs/internal/topology"
	"dibs/internal/transport"
	"dibs/internal/workload"
)

// TopoKind selects the network topology.
type TopoKind string

const (
	// TopoFatTree is the K-ary fat-tree of the NS-3 evaluation (§5.3).
	TopoFatTree TopoKind = "fattree"
	// TopoClick is the Emulab testbed tree of §5.2.
	TopoClick TopoKind = "click"
	// TopoLinear is the degenerate chain of footnote 10.
	TopoLinear TopoKind = "linear"
	// TopoJellyfish is the random graph discussed in §7.
	TopoJellyfish TopoKind = "jellyfish"
	// TopoHyperX is the 2-D HyperX discussed in §7.
	TopoHyperX TopoKind = "hyperx"
)

// BufferMode selects the switch queue discipline.
type BufferMode string

const (
	// BufferDropTail is a fixed per-port FIFO (paper default, 100 pkts).
	BufferDropTail BufferMode = "droptail"
	// BufferInfinite is the unbounded baseline of §5.2.
	BufferInfinite BufferMode = "infinite"
	// BufferShared is dynamic buffer allocation over shared switch
	// memory (§5.5.2).
	BufferShared BufferMode = "shared"
	// BufferPFabric is the 24-packet priority queue of §5.8.
	BufferPFabric BufferMode = "pfabric"
)

// SwitchArch selects the switch architecture (§4).
type SwitchArch string

const (
	// ArchOutputQueued is the paper's primary model (and the default;
	// the empty string means the same).
	ArchOutputQueued SwitchArch = "oq"
	// ArchCIOQ is the combined input/output queued architecture of §4.
	ArchCIOQ SwitchArch = "cioq"
)

// SimMode selects the simulation fidelity (DESIGN §9, hybrid fast path).
type SimMode string

const (
	// ModePacket is full per-packet fidelity (default; the empty string
	// means the same).
	ModePacket SimMode = "packet"
	// ModeFluid models every configured flow as a piecewise-constant
	// rate process — a throughput mode for sweep-scale runs; transient
	// per-packet physics (detours, drops, retransmissions) are not
	// simulated for modeled flows.
	ModeFluid SimMode = "fluid"
	// ModeHybrid keeps packet fidelity where DIBS needs it: flows start
	// as packets, demote to fluid after a stable-cwnd threshold, and
	// promote back when a port on their path enters the incast regime.
	ModeHybrid SimMode = "hybrid"
)

// DetourPolicy names a DIBS policy.
type DetourPolicy string

const (
	// PolicyRandom is the paper's parameter-free default.
	PolicyRandom DetourPolicy = "random"
	// PolicyLoadAware detours to the least-loaded eligible port (§7).
	PolicyLoadAware DetourPolicy = "load-aware"
	// PolicyFlowBased pins each flow's detours to one port (§7).
	PolicyFlowBased DetourPolicy = "flow-based"
)

// OneShot describes a single synchronized incast (the §5.2 Click
// experiment): Senders hosts each open FlowsPerSender simultaneous flows of
// Bytes to the last host, at time At.
type OneShot struct {
	At             eventq.Time
	Senders        int
	FlowsPerSender int
	Bytes          int64
}

// LongFlows configures the §5.6 fairness workload: node-disjoint host
// pairs, each running PerPair flows in both directions for the whole run.
// Shuffle switches from adjacent (same-edge) pairing to random pairing,
// which adds ECMP path contention (an ablation beyond the paper).
type LongFlows struct {
	PerPair int
	Shuffle bool
}

// Config fully describes one simulation run. The zero value is not valid;
// start from DefaultConfig.
type Config struct {
	// --- topology ---
	Topo     TopoKind
	FatTreeK int
	// Oversub divides switch-to-switch link capacity (§5.5.4): factor f
	// yields 1:f^2 oversubscription. 1 = full bisection.
	Oversub   int
	LinkRate  int64
	LinkDelay eventq.Time
	// Jellyfish / HyperX / Linear geometry (used per Topo).
	JellyfishSwitches, JellyfishDegree, JellyfishHostsPer int
	HyperXX, HyperXY, HyperXHostsPer                      int
	LinearSwitches, LinearHostsPer                        int

	// --- switch architecture ---
	// Arch selects output-queued (default) or combined input/output
	// queued switches (§4): "cioq" adds per-input VOQ buffers and a
	// crossbar (switching.DefaultCIOQ); DIBS detours at the forwarding
	// engine against the egress queues.
	Arch SwitchArch

	// --- switch buffers ---
	Buffer BufferMode
	// BufferPkts is the per-port queue capacity (droptail/pfabric).
	BufferPkts int
	// MarkAtPkts is the DCTCP ECN marking threshold; 0 disables marking.
	MarkAtPkts int

	// --- DIBS ---
	DIBS   bool
	Policy DetourPolicy

	// --- Ethernet flow control (§6 comparison; alternative to DIBS) ---
	// PFC enables hop-by-hop pause. Requires BufferShared (real PFC
	// switches do per-ingress accounting over shared memory) and DIBS
	// off. A switch pauses an upstream link when the packets buffered from
	// that ingress cross enablePFC's Xoff threshold, and resumes below
	// its Xon.
	PFC bool

	// --- transport (Table 1) ---
	Transport    transport.Variant
	MinRTO       eventq.Time
	DupAckThresh int
	TTL          int
	// DelayedAck enables the DCTCP delayed-ACK ECN-echo state machine
	// instead of per-segment ACKs.
	DelayedAck bool

	// PacketSpray switches all switches from flow-level to packet-level
	// ECMP (§6 comparison: even per-packet load balancing cannot relieve
	// incast, because the last hop has a single path).
	PacketSpray bool

	// --- workload (Table 2) ---
	Seed int64
	// Duration is the traffic-generation window; Drain is extra time to
	// let in-flight flows finish before measuring.
	Duration eventq.Time
	Drain    eventq.Time
	// BGInterarrival is the per-host mean background flow inter-arrival
	// time; 0 disables background traffic.
	BGInterarrival eventq.Time
	// Query enables incast traffic when non-nil.
	Query *workload.QueryConfig
	// OneShot enables a single synchronized incast when non-nil.
	OneShot *OneShot
	// Long enables the fairness workload when non-nil.
	Long *LongFlows

	// --- instrumentation ---
	// Every instrument records into its shard's metrics.Collector, and
	// Results.Collector carries the merged products, identical for every
	// shard count.
	//
	// TraceEveryNth attaches a path trace to every Nth data packet each
	// host emits (0 disables tracing); Collector.BestTrace keeps the
	// most-detoured one delivered.
	TraceEveryNth int
	// TraceEvents records a structured event log (drops, detours,
	// deliveries, flow starts and completions) in Collector.Events,
	// capped at 1M events.
	TraceEvents bool
	// UtilWindow enables the link-utilization monitor Collector.Util
	// (Figure 4); 0 disables.
	UtilWindow eventq.Time
	// BufferSamplePeriod enables the buffer-occupancy snapshots
	// Collector.Buf (Figures 2b and 5); 0 disables.
	BufferSamplePeriod eventq.Time
	// HostMarkAtPkts, when > 0, ECN-marks at the host NIC queue at that
	// threshold, as DCTCP deployments do on end hosts. The default 0
	// leaves NICs unmarked (deep FIFO bufferbloat), matching the paper's
	// switch-only marking setup. Marked NICs give long flows a stationary
	// NIC-bottleneck steady state, which is the regime the hybrid mode's
	// standing-queue abstraction models faithfully (DESIGN §9).
	HostMarkAtPkts int
	// ForwardJitter adds a uniform per-packet delivery jitter in
	// [0, ForwardJitter) on every link (FIFO order preserved), modeling
	// variable switch pipeline latency. Without it, identical self-clocked
	// DCTCP flows phase-lock on the deterministic marking threshold and
	// share bandwidth unfairly. 0 disables.
	ForwardJitter eventq.Time
	// Mode selects the simulation fidelity: "packet" (default, also the
	// empty string), "fluid", or "hybrid" (DESIGN §9). Fluid and hybrid
	// reject the options the rate model cannot honor yet, the
	// instruments among them; see Validate.
	Mode SimMode
	// FluidTick is the fluid engine's time resolution (0 = 100 us): rate
	// re-solves, byte credits, and demote/promote decisions all happen on
	// tick boundaries.
	FluidTick eventq.Time
	// FluidStableWindows is the consecutive stable-cwnd window count after
	// which a hybrid-mode flow demotes to fluid (0 = 8).
	FluidStableWindows int
	// FluidMinBytes is the smallest flow (and smallest remaining transfer)
	// eligible for fluid custody (0 = 1 MB). Short flows — the paper's
	// query traffic — always stay packets.
	FluidMinBytes int64
	// Shards partitions the network across that many conservative-PDES
	// scheduler shards (DESIGN §9): pods stay together, cores spread
	// round-robin, hosts follow their edge switch, and shards run
	// lookahead-wide windows in parallel, exchanging cross-shard packets
	// at window barriers. Results are byte-identical for every shard
	// count, instruments included. 0 or 1 selects the plain sequential
	// engine; values above the switch count are clamped. Shards > 1
	// rejects PFC (whose pause control loop is tighter than the
	// link-delay lookahead) and a zero LinkDelay.
	Shards int
}

// DefaultConfig returns the paper's default setup (Tables 1 and 2): K=8
// fat-tree, 1 Gbps links, 100-packet buffers marking at 20, DCTCP with
// 10 ms minRTO and initial window 10, fast retransmit disabled, DIBS with
// the random policy, 300 qps incast of degree 40 x 20 KB, and 120 ms
// per-host background inter-arrivals.
func DefaultConfig() Config {
	return Config{
		Topo:      TopoFatTree,
		FatTreeK:  8,
		Oversub:   1,
		LinkRate:  1_000_000_000,
		LinkDelay: 1500 * eventq.Nanosecond,

		Buffer:     BufferDropTail,
		BufferPkts: 100,
		MarkAtPkts: 20,

		DIBS:   true,
		Policy: PolicyRandom,

		Transport:    transport.DCTCP,
		MinRTO:       10 * eventq.Millisecond,
		DupAckThresh: 0,
		TTL:          255,

		Seed:           1,
		Duration:       eventq.Second,
		Drain:          300 * eventq.Millisecond,
		BGInterarrival: 120 * eventq.Millisecond,
		Query: &workload.QueryConfig{
			QPS:           300,
			Degree:        40,
			ResponseBytes: 20_000,
		},

		ForwardJitter: 2 * eventq.Microsecond,

		FluidTick:          100 * eventq.Microsecond,
		FluidStableWindows: 8,
		FluidMinBytes:      1 << 20,

		Arch: ArchOutputQueued,
	}
}

// geometry returns the host count and the widest switch's port count of
// the topology c describes: what Build(c).Topo has, for any geometry
// Validate accepts.
func (c *Config) geometry() (hosts, radix int) {
	switch c.Topo {
	case TopoFatTree:
		return c.FatTreeK * c.FatTreeK * c.FatTreeK / 4, c.FatTreeK
	case TopoClick:
		return 6, 4 // an edge switch: two aggregation switches, two hosts
	case TopoLinear:
		return c.LinearSwitches * c.LinearHostsPer, min(c.LinearSwitches-1, 2) + c.LinearHostsPer
	case TopoJellyfish:
		return c.JellyfishSwitches * c.JellyfishHostsPer, c.JellyfishDegree + c.JellyfishHostsPer
	case TopoHyperX:
		return c.HyperXX * c.HyperXY * c.HyperXHostsPer, c.HyperXX + c.HyperXY - 2 + c.HyperXHostsPer
	}
	return 0, 0
}

// option is a Config setting named the way a rejection reports it.
type option struct {
	name string
	on   bool
}

// Validate returns one "netsim: ..." error per inconsistency in c, joined
// with errors.Join, or nil. It is the only judge of a Config: Build panics
// with its error.
func (c *Config) Validate() error {
	var errs []error
	reject := func(violated bool, format string, args ...any) {
		if violated {
			errs = append(errs, fmt.Errorf("netsim: "+format, args...))
		}
	}
	reject(c.LinkRate <= 0, "link rate must be positive")
	reject(c.LinkDelay < 0, "LinkDelay must be >= 0")
	switch c.Buffer {
	case BufferDropTail, BufferPFabric:
		reject(c.BufferPkts < 1, "%s needs BufferPkts >= 1", c.Buffer)
	case BufferShared, BufferInfinite:
	default:
		reject(true, "unknown buffer mode %q", c.Buffer)
	}
	reject(c.DIBS && c.Buffer == BufferPFabric, "DIBS does not combine with pFabric queues")
	if c.PFC {
		reject(c.DIBS, "PFC and DIBS are alternative mechanisms; enable one")
		reject(c.Buffer != BufferShared, "PFC requires shared-buffer switches")
	}
	// A named policy must exist even with DIBS off; DIBS on needs one.
	if c.DIBS || c.Policy != "" {
		switch c.Policy {
		case PolicyRandom, PolicyLoadAware, PolicyFlowBased:
		default:
			reject(true, "unknown detour policy %q", c.Policy)
		}
	}
	switch c.Transport {
	case transport.DCTCP, transport.NewReno:
		reject(c.MinRTO <= 0, "MinRTO must be positive")
	case transport.PFabric: // fixed RTO; MinRTO is not used
	default:
		reject(true, "unknown transport variant %d", c.Transport)
	}
	switch c.Arch {
	case "", ArchOutputQueued:
	case ArchCIOQ:
		reject(c.PFC, "PFC is implemented for output-queued switches only")
		reject(c.Buffer != BufferDropTail, "CIOQ uses dedicated drop-tail egress queues")
	default:
		reject(true, "unknown switch architecture %q", c.Arch)
	}
	reject(c.Duration <= 0, "duration must be positive")
	reject(c.Drain < 0, "Drain must be >= 0")
	reject(c.TTL < 2, "TTL must be >= 2")
	reject(c.HostMarkAtPkts < 0, "HostMarkAtPkts must be >= 0 (0 disables NIC marking)")
	reject(c.MarkAtPkts < 0, "MarkAtPkts must be >= 0 (0 disables switch ECN marking)")
	reject(c.DupAckThresh < 0, "DupAckThresh must be >= 0 (0 disables fast retransmit)")
	reject(c.BGInterarrival < 0, "BGInterarrival must be >= 0 (0 disables background traffic)")
	reject(c.ForwardJitter < 0, "ForwardJitter must be >= 0 (0 disables link jitter)")
	reject(c.TraceEveryNth < 0, "TraceEveryNth must be >= 0 (0 disables path tracing)")
	reject(c.UtilWindow < 0, "UtilWindow must be >= 0 (0 disables the utilization monitor)")
	reject(c.BufferSamplePeriod < 0, "BufferSamplePeriod must be >= 0 (0 disables buffer sampling)")
	reject(c.Shards < 0, "Shards must be >= 0")

	if c.Shards > 1 {
		reject(c.PFC, "PFC requires Shards <= 1: pause feedback reacts faster than the link-delay lookahead window")
		reject(c.LinkDelay == 0, "Shards > 1 needs a positive LinkDelay lookahead")
	}
	switch c.Mode {
	case "", ModePacket:
	case ModeFluid, ModeHybrid:
		// Each of these either observes per-packet state that fluid flows
		// never generate (the instrumentation would silently misreport) or
		// configures a mechanism the rate model does not fold into.
		for _, o := range []option{
			{"Shards", c.Shards > 1},                      // the engine is a run-global controller on one clock
			{"PFC", c.PFC},                                // pause state is not in the rate solver
			{"Arch=cioq", c.Arch == ArchCIOQ},             // occupancy folds into OQ egress queues only
			{"Buffer=pfabric", c.Buffer == BufferPFabric}, // a priority queue has no FIFO depth to fold into
			{"PacketSpray", c.PacketSpray},                // fluid paths replicate flow-ECMP; sprayed traffic has no single path
			{"TraceEvents", c.TraceEvents},
			{"TraceEveryNth", c.TraceEveryNth > 0},
			{"UtilWindow", c.UtilWindow > 0},
			{"BufferSamplePeriod", c.BufferSamplePeriod > 0},
		} {
			reject(o.on, "%s cannot combine with Mode=%s: fluid-modeled flows emit no packets for it to observe or control", o.name, c.Mode)
		}
		reject(c.FluidTick < 0 || c.FluidStableWindows < 0 || c.FluidMinBytes < 0,
			"fluid tunables must be >= 0 (0 selects the default)")
	default:
		reject(true, "unknown simulation mode %q", c.Mode)
	}

	if q := c.Query; q != nil {
		reject(q.QPS <= 0, "Query.QPS must be positive")
		reject(q.Degree < 1, "Query.Degree must be >= 1")
		reject(q.ResponseBytes <= 0, "Query.ResponseBytes must be positive")
		reject(q.MaxFanInPerHost < 0, "Query.MaxFanInPerHost must be >= 0 (0 keeps responders distinct, as 1 does)")
	}
	if os := c.OneShot; os != nil {
		reject(os.At < 0, "OneShot.At must be >= 0")
		reject(os.Senders < 1, "OneShot.Senders must be >= 1")
		reject(os.FlowsPerSender < 1, "OneShot.FlowsPerSender must be >= 1")
		reject(os.Bytes <= 0, "OneShot.Bytes must be positive")
	}
	reject(c.Long != nil && c.Long.PerPair < 1, "Long.PerPair must be >= 1")
	beforeGeometry := len(errs)
	switch c.Topo {
	case TopoFatTree:
		reject(c.FatTreeK < 2 || c.FatTreeK%2 != 0, "fat-tree K must be even and >= 2, got %d", c.FatTreeK)
		reject(c.Oversub < 1, "Oversub must be >= 1, got %d", c.Oversub)
		reject(c.LinkRate > 0 && int64(c.Oversub) > c.LinkRate,
			"Oversub %d leaves switch-to-switch links no capacity at LinkRate %d", c.Oversub, c.LinkRate)
	case TopoClick:
	case TopoLinear:
		reject(c.LinearSwitches < 1, "linear topology needs LinearSwitches >= 1")
	case TopoJellyfish:
		reject(c.JellyfishDegree >= c.JellyfishSwitches,
			"jellyfish degree %d must be below its %d switches", c.JellyfishDegree, c.JellyfishSwitches)
		reject(c.JellyfishSwitches*c.JellyfishDegree%2 != 0, "jellyfish needs an even JellyfishSwitches*JellyfishDegree")
	case TopoHyperX:
		reject(c.HyperXX < 1 || c.HyperXY < 1, "hyperx dimensions must be >= 1, got %dx%d", c.HyperXX, c.HyperXY)
	default:
		reject(true, "unknown topology %q", c.Topo)
	}
	// The port bound, and workload bounds on the host count, which only a
	// well-formed geometry has.
	if len(errs) == beforeGeometry {
		hosts, radix := c.geometry()
		reject(radix > topology.MaxPorts, "%s switches would need %d ports; at most %d fit", c.Topo, radix, topology.MaxPorts)
		if q := c.Query; q != nil {
			capacity := (hosts - 1) * max(1, q.MaxFanInPerHost)
			reject(q.Degree > capacity, "Query.Degree %d exceeds responder capacity %d of %d hosts", q.Degree, capacity, hosts)
		}
		if os := c.OneShot; os != nil {
			reject(os.Senders >= hosts, "one-shot senders must leave a target host: %d senders, %d hosts", os.Senders, hosts)
		}
		reject(c.BGInterarrival > 0 && hosts < 2, "background traffic needs >= 2 hosts, got %d", hosts)
	}
	return errors.Join(errs...)
}
