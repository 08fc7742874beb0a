// Package workload generates the traffic of the paper's evaluation (§5.3):
//
//   - Background traffic modeled on the production data center traces of
//     the DCTCP paper (~80% of flows under 100 KB with a heavy tail),
//     arriving per host as a Poisson process with configurable mean
//     inter-arrival time (Table 2 varies 10-120 ms).
//   - Query (partition-aggregate / incast) traffic: queries arrive as a
//     network-wide Poisson process at a configurable rate (qps); each query
//     picks a random target host and a random set of "incast degree"
//     responders, each of which sends a fixed-size response to the target.
//   - Long-lived pair flows for the fairness experiment (§5.6): 64
//     node-disjoint pairs with N flows in each direction.
//
// The original traces are proprietary; SizeDist encodes the published
// distribution shape with log-linear interpolation (see DESIGN.md).
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"dibs/internal/eventq"
	"dibs/internal/metrics"
	"dibs/internal/packet"
)

// Launch is the callback generators use to start a flow. queryID is -1
// for non-query flows.
type Launch func(src, dst packet.NodeID, bytes int64, class metrics.FlowClass, queryID int)

// SizeDist is an empirical flow-size distribution: a piecewise CDF sampled
// with log-linear interpolation between knots.
type SizeDist struct {
	points []SizePoint
}

// SizePoint is one CDF knot: fraction F of flows are <= Bytes.
type SizePoint struct {
	Bytes int64
	F     float64
}

// NewSizeDist validates knots (F strictly increasing to 1, Bytes strictly
// increasing and positive) and returns the distribution.
func NewSizeDist(points []SizePoint) *SizeDist {
	if len(points) < 2 {
		panic("workload: size distribution needs >= 2 points")
	}
	for i, p := range points {
		if p.Bytes <= 0 {
			panic("workload: size points must be positive")
		}
		if i > 0 && (p.Bytes <= points[i-1].Bytes || p.F <= points[i-1].F) {
			panic("workload: size points must be strictly increasing")
		}
		if p.F > 1 {
			panic("workload: CDF points must not exceed 1")
		}
	}
	if points[len(points)-1].F < 1 {
		panic("workload: final CDF point must be 1")
	}
	if points[0].F < 0 {
		panic("workload: CDF must start >= 0")
	}
	return &SizeDist{points: points}
}

// WebSearchBackground approximates the DCTCP paper's web-search background
// flow sizes: mostly small flows (80% below 100 KB) with a heavy tail
// truncated at 10 MB for simulation tractability.
func WebSearchBackground() *SizeDist {
	return NewSizeDist([]SizePoint{
		{1_000, 0.02},
		{2_000, 0.15},
		{5_000, 0.35},
		{10_000, 0.55},
		{20_000, 0.65},
		{50_000, 0.75},
		{100_000, 0.80},
		{300_000, 0.88},
		{1_000_000, 0.94},
		{3_000_000, 0.98},
		{10_000_000, 1.00},
	})
}

// Sample draws a flow size.
func (d *SizeDist) Sample(rng *rand.Rand) int64 {
	// float64(...) rounds rng.Float64's inlined scaling product and the
	// interpolation product on their own, so no platform fuses either
	// into the subtract or add beside it.
	u := float64(rng.Float64())
	pts := d.points
	if u <= pts[0].F {
		return pts[0].Bytes
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].F >= u }) // first knot with F >= u
	lo, hi := pts[i-1], pts[i]
	// Log-linear interpolation in bytes.
	frac := (u - lo.F) / (hi.F - lo.F)
	lb := math.Log(float64(lo.Bytes))
	hb := math.Log(float64(hi.Bytes))
	return int64(math.Exp(lb + float64(frac*(hb-lb))))
}

// Mean estimates the distribution mean by numeric integration over the
// knots (log-linear segments), useful for load accounting in tests.
func (d *SizeDist) Mean(rng *rand.Rand, samples int) float64 {
	var sum float64
	for i := 0; i < samples; i++ {
		sum += float64(d.Sample(rng))
	}
	return sum / float64(samples)
}

// Background generates per-host Poisson flow arrivals.
type Background struct {
	sched *eventq.Scheduler
	rng   *rand.Rand
	hosts []packet.NodeID
	// MeanInterarrival is the per-host mean time between flow starts.
	MeanInterarrival eventq.Time
	Sizes            *SizeDist
	start            Launch
	stopAt           eventq.Time

	// Started counts generated flows.
	Started int
}

// NewBackground creates a background generator over hosts. Flows start
// until stopAt.
func NewBackground(sched *eventq.Scheduler, rng *rand.Rand, hosts []packet.NodeID,
	meanInterarrival eventq.Time, sizes *SizeDist, stopAt eventq.Time, start Launch) *Background {
	if meanInterarrival <= 0 {
		panic("workload: mean interarrival must be positive")
	}
	if len(hosts) < 2 {
		panic("workload: background needs >= 2 hosts")
	}
	return &Background{
		sched: sched, rng: rng, hosts: hosts,
		MeanInterarrival: meanInterarrival, Sizes: sizes,
		start: start, stopAt: stopAt,
	}
}

// Start schedules the first arrival on every host.
func (b *Background) Start() {
	for _, h := range b.hosts {
		b.scheduleNext(h)
	}
}

func (b *Background) scheduleNext(h packet.NodeID) {
	gap := expDelay(b.rng, b.MeanInterarrival)
	at := b.sched.Now() + gap
	if at > b.stopAt {
		return
	}
	b.sched.At(at, func() {
		dst := b.randOtherHost(h)
		b.Started++
		b.start(h, dst, b.Sizes.Sample(b.rng), metrics.ClassBackground, -1)
		b.scheduleNext(h)
	})
}

func (b *Background) randOtherHost(h packet.NodeID) packet.NodeID {
	for {
		d := b.hosts[b.rng.Intn(len(b.hosts))]
		if d != h {
			return d
		}
	}
}

// QueryConfig parameterizes the incast workload (paper Table 2).
type QueryConfig struct {
	// QPS is the network-wide query arrival rate.
	QPS float64
	// Degree is the number of responders per query (paper default 40).
	Degree int
	// ResponseBytes is each responder's payload (paper default 20 KB).
	ResponseBytes int64
	// MaxFanInPerHost allows responders to appear multiple times when
	// Degree exceeds the host count (the §5.5.2 "multiple connections on
	// single server" trick); 1 keeps responders distinct.
	MaxFanInPerHost int
}

// Queries generates partition-aggregate query traffic.
type Queries struct {
	sched  *eventq.Scheduler
	rng    *rand.Rand
	hosts  []packet.NodeID
	cfg    QueryConfig
	start  Launch
	stopAt eventq.Time
	// OnQuery is invoked before a query's flows start (to register it
	// with the metrics collector).
	OnQuery func(queryID, nFlows int)

	nextID int
	// Started counts generated queries.
	Started int
}

// NewQueries creates a query generator.
func NewQueries(sched *eventq.Scheduler, rng *rand.Rand, hosts []packet.NodeID,
	cfg QueryConfig, stopAt eventq.Time, start Launch) *Queries {
	if cfg.QPS <= 0 {
		panic("workload: qps must be positive")
	}
	if cfg.Degree < 1 {
		panic("workload: incast degree must be >= 1")
	}
	if cfg.ResponseBytes <= 0 {
		panic("workload: response size must be positive")
	}
	if cfg.MaxFanInPerHost < 1 {
		cfg.MaxFanInPerHost = 1
	}
	if cfg.Degree > (len(hosts)-1)*cfg.MaxFanInPerHost {
		panic(fmt.Sprintf("workload: degree %d exceeds responder capacity %d",
			cfg.Degree, (len(hosts)-1)*cfg.MaxFanInPerHost))
	}
	return &Queries{sched: sched, rng: rng, hosts: hosts, cfg: cfg, stopAt: stopAt, start: start}
}

// Start schedules the first query arrival.
func (q *Queries) Start() {
	q.scheduleNext()
}

func (q *Queries) scheduleNext() {
	mean := eventq.Time(float64(eventq.Second) / q.cfg.QPS)
	at := q.sched.Now() + expDelay(q.rng, mean)
	if at > q.stopAt {
		return
	}
	q.sched.At(at, func() {
		q.fire()
		q.scheduleNext()
	})
}

// fire launches one query: a random target and Degree responders.
func (q *Queries) fire() {
	target := q.hosts[q.rng.Intn(len(q.hosts))]
	responders := q.pickResponders(target)
	id := q.nextID
	q.nextID++
	q.Started++
	if q.OnQuery != nil {
		q.OnQuery(id, len(responders))
	}
	for _, r := range responders {
		q.start(r, target, q.cfg.ResponseBytes, metrics.ClassQuery, id)
	}
}

// pickResponders selects Degree responders uniformly without replacement
// (up to MaxFanInPerHost repetitions per host).
func (q *Queries) pickResponders(target packet.NodeID) []packet.NodeID {
	pool := make([]packet.NodeID, 0, (len(q.hosts)-1)*q.cfg.MaxFanInPerHost)
	for _, h := range q.hosts {
		if h == target {
			continue
		}
		for i := 0; i < q.cfg.MaxFanInPerHost; i++ {
			pool = append(pool, h)
		}
	}
	// Partial Fisher-Yates for the first Degree entries.
	for i := 0; i < q.cfg.Degree; i++ {
		j := i + q.rng.Intn(len(pool)-i)
		pool[i], pool[j] = pool[j], pool[i]
	}
	return pool[:q.cfg.Degree]
}

// Pairs returns node-disjoint host pairs for the §5.6 fairness experiment
// by pairing hosts in index order: (0,1), (2,3), ... In a fat-tree this
// pairs hosts under the same edge switch, so each flow's only bottleneck is
// the host link and the 1/N-Gbps-per-flow expectation of §5.6 holds
// exactly.
func Pairs(hosts []packet.NodeID) [][2]packet.NodeID {
	var out [][2]packet.NodeID
	for i := 0; i+1 < len(hosts); i += 2 {
		out = append(out, [2]packet.NodeID{hosts[i], hosts[i+1]})
	}
	return out
}

// PairsShuffled pairs hosts after a seeded shuffle, producing mostly
// cross-pod pairs whose flows contend on ECMP-chosen core paths — a harder
// fairness setting used as an ablation.
func PairsShuffled(hosts []packet.NodeID, rng *rand.Rand) [][2]packet.NodeID {
	hs := append([]packet.NodeID(nil), hosts...)
	rng.Shuffle(len(hs), func(i, j int) { hs[i], hs[j] = hs[j], hs[i] })
	return Pairs(hs)
}

// expDelay draws an exponential delay with the given mean, floored at 1ns.
func expDelay(rng *rand.Rand, mean eventq.Time) eventq.Time {
	d := eventq.Time(rng.ExpFloat64() * float64(mean))
	if d < 1 {
		d = 1
	}
	return d
}
