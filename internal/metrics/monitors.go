package metrics

import (
	"dibs/internal/eventq"
	"dibs/internal/packet"
	"dibs/internal/switching"
)

// PortRef identifies one monitored output port. In a sharded run every
// shard's monitor lists every switch port, in the same order, and Out is
// nil for the ports another shard owns: the owner samples them, and
// MergeFrom takes each port's samples from its owner.
type PortRef struct {
	Node packet.NodeID
	Port int
	Out  *switching.OutPort
}

// LinkUtilMonitor samples link utilization in fixed windows, producing the
// data for the hot-link analysis of Figure 4: a link is "hot" in a window
// when its utilization meets a threshold (the paper uses 90% for its own
// workloads).
type LinkUtilMonitor struct {
	sched  *eventq.Scheduler
	window eventq.Time
	ports  []PortRef

	lastBusy []eventq.Time
	// Windows[w][i] is port i's utilization (0..1) during window w.
	Windows [][]float64
	running bool
}

// NewLinkUtilMonitor creates a monitor over the given ports with the given
// window length.
func NewLinkUtilMonitor(sched *eventq.Scheduler, window eventq.Time, ports []PortRef) *LinkUtilMonitor {
	if window <= 0 {
		panic("metrics: window must be positive")
	}
	return &LinkUtilMonitor{
		sched:    sched,
		window:   window,
		ports:    ports,
		lastBusy: make([]eventq.Time, len(ports)),
	}
}

// Start begins periodic sampling (a nil monitor is off).
func (m *LinkUtilMonitor) Start() {
	if m == nil || m.running {
		return
	}
	m.running = true
	for i, p := range m.ports {
		if p.Out != nil {
			m.lastBusy[i] = p.Out.BusyTime()
		}
	}
	m.sched.After(m.window, m.sample)
}

func (m *LinkUtilMonitor) sample() {
	utils := make([]float64, len(m.ports))
	for i, p := range m.ports {
		if p.Out == nil {
			continue
		}
		busy := p.Out.BusyTime()
		utils[i] = float64(busy-m.lastBusy[i]) / float64(m.window)
		if utils[i] > 1 {
			// Busy time is credited when a serialization starts, so one
			// that starts near the end of this window lands its whole
			// time here while part of it falls in the next; clamp.
			utils[i] = 1
		}
		m.lastBusy[i] = busy
	}
	m.Windows = append(m.Windows, utils)
	m.sched.After(m.window, m.sample)
}

// HotFractions returns, per window, the fraction of monitored links with
// utilization >= threshold.
func (m *LinkUtilMonitor) HotFractions(threshold float64) []float64 {
	out := make([]float64, len(m.Windows))
	for w, utils := range m.Windows {
		hot := 0
		for _, u := range utils {
			if u >= threshold {
				hot++
			}
		}
		out[w] = float64(hot) / float64(len(utils))
	}
	return out
}

// HotPorts returns the indices (into the monitor's port list) of the ports
// hot in window w.
func (m *LinkUtilMonitor) HotPorts(w int, threshold float64) []int {
	var out []int
	for i, u := range m.Windows[w] {
		if u >= threshold {
			out = append(out, i)
		}
	}
	return out
}

// Ports exposes the monitored port list.
func (m *LinkUtilMonitor) Ports() []PortRef { return m.ports }

// MergeFrom folds o — the same monitor in another shard, sampling the
// ports that shard owns at the same instants — into m (see PortRef).
func (m *LinkUtilMonitor) MergeFrom(o *LinkUtilMonitor) {
	for i, p := range o.ports {
		if p.Out != nil {
			m.ports[i] = p
			for w, utils := range o.Windows {
				m.Windows[w][i] = utils[i]
			}
		}
	}
}

// BufferSnapshot is one periodic sample of queue occupancy.
type BufferSnapshot struct {
	T eventq.Time
	// Len[i] is the queue length of monitored port i; Full[i] whether it
	// would refuse a packet.
	Len  []int
	Full []bool
}

// BufferSampler periodically snapshots queue occupancy of a port set
// (Figures 2b and 5).
type BufferSampler struct {
	sched   *eventq.Scheduler
	period  eventq.Time
	ports   []PortRef
	running bool

	Snapshots []BufferSnapshot
}

// NewBufferSampler creates a sampler with the given period.
func NewBufferSampler(sched *eventq.Scheduler, period eventq.Time, ports []PortRef) *BufferSampler {
	if period <= 0 {
		panic("metrics: period must be positive")
	}
	return &BufferSampler{sched: sched, period: period, ports: ports}
}

// Start begins periodic snapshots, the first after one period (a nil
// sampler is off).
func (b *BufferSampler) Start() {
	if b == nil || b.running {
		return
	}
	b.running = true
	b.sched.After(b.period, b.sample)
}

func (b *BufferSampler) sample() {
	s := BufferSnapshot{
		T:    b.sched.Now(),
		Len:  make([]int, len(b.ports)),
		Full: make([]bool, len(b.ports)),
	}
	for i, p := range b.ports {
		if p.Out != nil {
			s.Len[i] = p.Out.QueueLen()
			s.Full[i] = p.Out.QueueFull()
		}
	}
	b.Snapshots = append(b.Snapshots, s)
	b.sched.After(b.period, b.sample)
}

// Ports exposes the sampled port list.
func (b *BufferSampler) Ports() []PortRef { return b.ports }

// MergeFrom folds o — the same sampler in another shard, sampling the
// ports that shard owns at the same instants — into b (see PortRef).
func (b *BufferSampler) MergeFrom(o *BufferSampler) {
	for i, p := range o.ports {
		if p.Out != nil {
			b.ports[i] = p
			for k, snap := range o.Snapshots {
				b.Snapshots[k].Len[i], b.Snapshots[k].Full[i] = snap.Len[i], snap.Full[i]
			}
		}
	}
}
