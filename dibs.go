// Package dibs is a discrete-event reproduction of "DIBS: Just-in-time
// Congestion Mitigation for Data Centers" (Zarifis et al., EuroSys 2014).
//
// DIBS (detour-induced buffer sharing) lets a switch whose output queue is
// full detour packets to neighboring switches instead of dropping them,
// pooling the network's buffers to absorb transient incast bursts. This
// package is the public API over the simulator: describe a run with Config
// (topology, switch buffers, DIBS policy, transport, workload), call Run,
// and read the paper's metrics off Results.
//
// ExampleRun compares DCTCP with and without DIBS on the paper's default
// workload; ExampleWriteEventTrace analyzes a burst's event log. The
// experiment harness that regenerates every figure of the paper lives in
// cmd/figures.
package dibs

import (
	"errors"
	"io"
	"time"

	"dibs/internal/eventq"
	"dibs/internal/netsim"
	"dibs/internal/trace"
	"dibs/internal/transport"
	"dibs/internal/workload"
)

// Time is a virtual-time instant or duration in nanoseconds.
type Time = eventq.Time

// Duration converts a wall-clock time.Duration into virtual Time units.
func Duration(d time.Duration) Time { return eventq.Duration(d) }

// Virtual-time units.
const (
	Nanosecond  = eventq.Nanosecond
	Microsecond = eventq.Microsecond
	Millisecond = eventq.Millisecond
	Second      = eventq.Second
)

// Config describes one simulation run; see DefaultConfig for the paper's
// Table 1 and 2 defaults.
type Config = netsim.Config

// Results carries the paper's metrics for one run (times in ms).
type Results = netsim.Results

// Network is a built simulation; Run replays its configured workloads.
type Network = netsim.Network

// QueryConfig parameterizes the partition-aggregate (incast) workload.
type QueryConfig = workload.QueryConfig

// OneShot describes a single synchronized incast (the §5.2 experiment).
type OneShot = netsim.OneShot

// LongFlows configures the §5.6 fairness workload.
type LongFlows = netsim.LongFlows

// SizeDist is an empirical flow-size distribution.
type SizeDist = workload.SizeDist

// TopoKind selects the network topology.
type TopoKind = netsim.TopoKind

// BufferMode selects the switch queue discipline.
type BufferMode = netsim.BufferMode

// SimMode selects the simulation fidelity mode (DESIGN §9).
type SimMode = netsim.SimMode

// DetourPolicy names a DIBS detour policy.
type DetourPolicy = netsim.DetourPolicy

// Transport selects the end-host congestion-control variant.
type Transport = transport.Variant

// SwitchArch selects the switch architecture (§4).
type SwitchArch = netsim.SwitchArch

// Switch architectures.
const (
	ArchOutputQueued = netsim.ArchOutputQueued
	ArchCIOQ         = netsim.ArchCIOQ
)

// Topology kinds.
const (
	TopoFatTree   = netsim.TopoFatTree
	TopoClick     = netsim.TopoClick
	TopoLinear    = netsim.TopoLinear
	TopoJellyfish = netsim.TopoJellyfish
	TopoHyperX    = netsim.TopoHyperX
)

// Switch buffer modes.
const (
	BufferDropTail = netsim.BufferDropTail
	BufferInfinite = netsim.BufferInfinite
	BufferShared   = netsim.BufferShared
	BufferPFabric  = netsim.BufferPFabric
)

// Simulation fidelity modes: full per-packet simulation (the default),
// pure rate-model long flows, or the hybrid that demotes stable long flows
// to the rate model and promotes them back under incast (DESIGN §9).
const (
	ModePacket = netsim.ModePacket
	ModeFluid  = netsim.ModeFluid
	ModeHybrid = netsim.ModeHybrid
)

// Detour policies (§2 default and the §7 variants).
const (
	PolicyRandom    = netsim.PolicyRandom
	PolicyLoadAware = netsim.PolicyLoadAware
	PolicyFlowBased = netsim.PolicyFlowBased
)

// Transport variants.
const (
	DCTCP   = transport.DCTCP
	NewReno = transport.NewReno
	PFabric = transport.PFabric
)

// DefaultConfig returns the paper's default setup: K=8 fat-tree, 1 Gbps
// links, 100-packet buffers with ECN marking at 20, DCTCP (minRTO 10 ms,
// initial window 10, fast retransmit disabled), DIBS with the random
// policy, 300 qps incast of degree 40 x 20 KB, and 120 ms per-host
// background inter-arrivals.
func DefaultConfig() Config { return netsim.DefaultConfig() }

// Build assembles the network described by cfg without running it, for
// callers that inspect the network or time its construction before calling
// Network.Run, which runs the configured workloads. Like Run, it panics
// with the error cfg.Validate returns, which joins one "netsim: ..." error
// per violation; callers handling outside input (a config file, flags)
// should call cfg.Validate first and report its error instead.
func Build(cfg Config) *Network { return netsim.Build(cfg) }

// Run builds the network, runs the configured workloads for
// cfg.Duration+cfg.Drain of virtual time, and returns the measurements. It
// panics on a cfg that Validate rejects; see Build.
func Run(cfg Config) *Results { return netsim.Build(cfg).Run() }

// WebSearchBackground returns the background flow-size distribution used by
// the paper's simulations (approximating the DCTCP paper's traces).
func WebSearchBackground() *SizeDist { return workload.WebSearchBackground() }

// WriteEventTrace writes a run's recorded event log (Config.TraceEvents
// must have been set) as JSON Lines.
func WriteEventTrace(w io.Writer, r *Results) error {
	if r.Collector.Events == nil {
		return errors.New("dibs: event tracing was not enabled (set Config.TraceEvents)")
	}
	return trace.WriteJSONL(w, r.Collector.Events.Events())
}

// ReadEventTrace parses a JSONL event trace written by WriteEventTrace.
func ReadEventTrace(r io.Reader) ([]TraceEvent, error) { return trace.ReadJSONL(r) }

// TraceEvent is one structured simulation event.
type TraceEvent = trace.Event
