// Package core implements detour-induced buffer sharing (DIBS), the
// contribution of the paper. When a switch's output queue toward a packet's
// destination is full, a DIBS policy selects another switch-facing port with
// spare buffer to forward ("detour") the packet on, instead of dropping it.
//
// The paper's default policy is Random (§2): pick uniformly among ports that
// (a) do not face an end host and (b) whose queues are not full. It has no
// tunable parameters and requires no coordination between switches. §7
// sketches richer policies; the load-aware and flow-based ones are
// implemented here as well for the ablation experiments.
package core

import (
	"math/rand"

	"dibs/internal/packet"
)

// SwitchView is the switch state a detour policy may consult. It is
// deliberately restricted to information available at line rate in a real
// switch: port count, host-facing bitmap, and per-queue occupancy.
type SwitchView interface {
	// NumPorts returns the number of output ports.
	NumPorts() int
	// IsHostPort reports whether the port faces an end host. DIBS never
	// detours to hosts: they do not forward packets not meant for them.
	IsHostPort(port int) bool
	// QueueFull reports whether the port's output queue would refuse a
	// new packet.
	QueueFull(port int) bool
	// QueueLen returns the port's current queue length in packets.
	QueueLen(port int) int
}

// Policy decides where to detour a packet whose desired output queue is
// full.
type Policy interface {
	// SelectDetour returns the port to detour p on, or -1 to drop.
	// desired is the (full) port the FIB chose. rng is the switch-local
	// PRNG; policies must use it rather than global randomness so runs
	// are reproducible.
	SelectDetour(sw SwitchView, p *packet.Packet, desired int, rng *rand.Rand) int
}

// eligible appends to dst the detour-eligible ports: switch-facing, not
// full, and not the (full) desired port. Returns the filled slice.
func eligible(sw SwitchView, desired int, dst []int) []int {
	for i := 0; i < sw.NumPorts(); i++ {
		if i == desired || sw.IsHostPort(i) || sw.QueueFull(i) {
			continue
		}
		dst = append(dst, i)
	}
	return dst
}

// Random is the paper's parameter-free default policy.
type Random struct {
	scratch []int
}

// NewRandom returns the random detour policy.
func NewRandom() *Random { return &Random{} }

// SelectDetour implements Policy: uniform choice among eligible ports.
func (r *Random) SelectDetour(sw SwitchView, p *packet.Packet, desired int, rng *rand.Rand) int {
	r.scratch = eligible(sw, desired, r.scratch[:0])
	if len(r.scratch) == 0 {
		return -1
	}
	return r.scratch[rng.Intn(len(r.scratch))]
}

// LoadAware detours to the eligible port with the shortest queue (§7
// "Load-aware detouring"), breaking ties uniformly at random.
type LoadAware struct {
	scratch []int
}

// NewLoadAware returns the load-aware detour policy.
func NewLoadAware() *LoadAware { return &LoadAware{} }

// SelectDetour implements Policy.
func (l *LoadAware) SelectDetour(sw SwitchView, p *packet.Packet, desired int, rng *rand.Rand) int {
	l.scratch = eligible(sw, desired, l.scratch[:0])
	if len(l.scratch) == 0 {
		return -1
	}
	best := -1
	bestLen := 0
	ties := 0
	for _, port := range l.scratch {
		n := sw.QueueLen(port)
		switch {
		case best == -1 || n < bestLen:
			best, bestLen, ties = port, n, 1
		case n == bestLen:
			// Reservoir-sample among ties for a uniform choice.
			ties++
			if rng.Intn(ties) == 0 {
				best = port
			}
		}
	}
	return best
}

// FlowBased detours all packets of a flow through the same port (§7
// "Flow-based detouring"), chosen by hashing the flow ID over the eligible
// set, so detoured packets of one flow follow a consistent path and
// reordering within the detour itself is avoided.
type FlowBased struct {
	scratch []int
}

// NewFlowBased returns the flow-based detour policy.
func NewFlowBased() *FlowBased { return &FlowBased{} }

// SelectDetour implements Policy.
func (f *FlowBased) SelectDetour(sw SwitchView, p *packet.Packet, desired int, rng *rand.Rand) int {
	f.scratch = eligible(sw, desired, f.scratch[:0])
	if len(f.scratch) == 0 {
		return -1
	}
	h := FlowHash(p.Flow, 0x9e3779b97f4a7c15)
	return f.scratch[int(h%uint64(len(f.scratch)))]
}

// FlowHash mixes a flow ID with a per-switch seed into a well-distributed
// hash, used for ECMP next-hop selection and flow-based detouring. It is
// the 64-bit finalizer of SplitMix64.
func FlowHash(flow packet.FlowID, seed uint64) uint64 {
	z := uint64(flow) + seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
