package netsim

import (
	"math"

	"dibs/internal/eventq"
	"dibs/internal/metrics"
	"dibs/internal/packet"
	"dibs/internal/rng"
	"dibs/internal/workload"
)

// flowStart is one precomputed flow arrival.
type flowStart struct {
	id       packet.FlowID
	at       eventq.Time
	src, dst packet.NodeID
	bytes    int64
	class    metrics.FlowClass
	queryID  int
}

// queryStart is one precomputed query arrival.
type queryStart struct {
	id     int
	at     eventq.Time
	nFlows int
}

// flowSchedule is the full precomputed workload of a run: every flow and
// query arrival, in start order, with flow IDs assigned by that order.
type flowSchedule struct {
	flows   []flowStart
	queries []queryStart
}

// recordSchedule runs the configured workload generators to completion on a
// scratch scheduler and records what they would start instead of starting
// it. The generators are feedback-free — pure functions of their RNG stream
// and the clock, never of simulation state — so the recording is exactly
// the arrival sequence a live run would produce, and it is computed once,
// up front, identically for every shard count. Both the sequential and the
// sharded engines then replay this schedule, which is what pins "flow N" to
// the same (time, endpoints, size) everywhere.
func recordSchedule(cfg *Config, hosts []packet.NodeID) *flowSchedule {
	s := &flowSchedule{flows: make([]flowStart, 0, expectedFlows(cfg, len(hosts)))}
	scratch := eventq.NewScheduler()
	next := packet.FlowID(0)
	rec := func(src, dst packet.NodeID, bytes int64, class metrics.FlowClass, queryID int) {
		s.flows = append(s.flows, flowStart{
			id: next, at: scratch.Now(), src: src, dst: dst,
			bytes: bytes, class: class, queryID: queryID,
		})
		next++
	}

	// Long flows first, at t=0: the live engine started them synchronously
	// before the event loop, so they own the lowest flow IDs.
	if cfg.Long != nil {
		pairs := workload.Pairs(hosts)
		if cfg.Long.Shuffle {
			pairs = workload.PairsShuffled(hosts, rng.New(cfg.Seed, "workload/longpairs"))
		}
		const longBytes = int64(1) << 40 // effectively unbounded
		for _, pr := range pairs {
			for i := 0; i < cfg.Long.PerPair; i++ {
				rec(pr[0], pr[1], longBytes, metrics.ClassLong, -1)
				rec(pr[1], pr[0], longBytes, metrics.ClassLong, -1)
			}
		}
	}
	if cfg.BGInterarrival > 0 {
		bg := workload.NewBackground(scratch, rng.New(cfg.Seed, "workload/background"),
			hosts, cfg.BGInterarrival, workload.WebSearchBackground(), cfg.Duration, rec)
		bg.Start()
	}
	if cfg.Query != nil {
		q := workload.NewQueries(scratch, rng.New(cfg.Seed, "workload/queries"),
			hosts, *cfg.Query, cfg.Duration, rec)
		q.OnQuery = func(queryID, nFlows int) {
			s.queries = append(s.queries, queryStart{id: queryID, at: scratch.Now(), nFlows: nFlows})
		}
		q.Start()
	}
	horizon := cfg.Duration
	if os := cfg.OneShot; os != nil {
		scratch.At(os.At, func() {
			target := hosts[len(hosts)-1]
			nFlows := os.Senders * os.FlowsPerSender
			s.queries = append(s.queries, queryStart{id: oneShotQueryID, at: os.At, nFlows: nFlows})
			for snd := 0; snd < os.Senders; snd++ {
				for f := 0; f < os.FlowsPerSender; f++ {
					rec(hosts[snd], target, os.Bytes, metrics.ClassQuery, oneShotQueryID)
				}
			}
		})
		if os.At > horizon {
			horizon = os.At
		}
	}
	scratch.RunUntil(horizon)
	return s
}

// expectedFlows sizes the recorded flow table, which stays live for the
// whole run: the mean number of flows cfg's workloads start, plus two
// standard deviations of the Poisson arrivals (background flows one at a
// time, query responses Degree at a time), which about one run in forty
// outgrows once.
func expectedFlows(cfg *Config, nHosts int) int {
	var mean, variance float64
	if cfg.Long != nil {
		mean += float64(2 * cfg.Long.PerPair * (nHosts / 2))
	}
	if cfg.BGInterarrival > 0 {
		bg := float64(nHosts) * float64(cfg.Duration) / float64(cfg.BGInterarrival)
		mean += bg
		variance += bg
	}
	if q := cfg.Query; q != nil {
		queries, degree := q.QPS*cfg.Duration.Seconds(), float64(q.Degree)
		mean += float64(queries * degree)
		variance += float64(queries * degree * degree)
	}
	if os := cfg.OneShot; os != nil {
		mean += float64(os.Senders * os.FlowsPerSender)
	}
	return int(mean + float64(2*math.Sqrt(variance)))
}

// oneShotQueryID is the synthetic query ID of the single-incast workload,
// far above anything the query generator assigns.
const oneShotQueryID = 1_000_000
