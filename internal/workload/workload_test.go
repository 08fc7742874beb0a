package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dibs/internal/eventq"
	"dibs/internal/metrics"
	"dibs/internal/packet"
	"dibs/internal/quicktest"
)

func hosts(n int) []packet.NodeID {
	hs := make([]packet.NodeID, n)
	for i := range hs {
		hs[i] = packet.NodeID(i)
	}
	return hs
}

func TestWebSearchBackgroundShape(t *testing.T) {
	d := WebSearchBackground()
	rng := rand.New(rand.NewSource(1))
	n := 50_000
	under100K, under10K := 0, 0
	var min, max int64 = math.MaxInt64, 0
	for i := 0; i < n; i++ {
		s := d.Sample(rng)
		if s <= 100_000 {
			under100K++
		}
		if s <= 10_000 {
			under10K++
		}
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	// Paper: ~80% of background flows below 100KB.
	f100 := float64(under100K) / float64(n)
	if f100 < 0.77 || f100 > 0.83 {
		t.Fatalf("fraction <= 100KB = %v, want ~0.80", f100)
	}
	f10 := float64(under10K) / float64(n)
	if f10 < 0.52 || f10 > 0.58 {
		t.Fatalf("fraction <= 10KB = %v, want ~0.55", f10)
	}
	if min < 1_000 || max > 10_000_000 {
		t.Fatalf("sample range [%d, %d] outside knots", min, max)
	}
}

func TestSizeDistValidation(t *testing.T) {
	bad := [][]SizePoint{
		{{1000, 1}},                           // too few
		{{1000, 0.5}, {500, 1}},               // bytes not increasing
		{{1000, 0.5}, {2000, 0.4}},            // F not increasing
		{{1000, 0.5}, {2000, 0.9}},            // doesn't end at 1
		{{1000, 0.5}, {2000, 1.5}},            // ends above 1
		{{0, 0.5}, {2000, 1}},                 // nonpositive bytes
		{{1000, 0.5}, {2000, 0.5}, {3000, 1}}, // F stalls
	}
	for i, pts := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d should panic", i)
				}
			}()
			NewSizeDist(pts)
		}()
	}
}

func TestBackgroundGeneratorRate(t *testing.T) {
	sched := eventq.NewScheduler()
	rng := rand.New(rand.NewSource(2))
	var flows int
	var sizes []int64
	gen := NewBackground(sched, rng, hosts(8), 10*eventq.Millisecond,
		eventq.Second, func(src, dst packet.NodeID, bytes int64, class metrics.FlowClass, queryID int) {
			flows++
			sizes = append(sizes, bytes)
			if src == dst {
				t.Error("flow to self")
			}
			if class != metrics.ClassBackground || queryID != -1 {
				t.Error("wrong class/queryID")
			}
		})
	gen.Start()
	sched.Run()
	// 8 hosts x ~100 flows/s x 1s = ~800 flows.
	if flows < 600 || flows > 1000 {
		t.Fatalf("flows = %d, want ~800", flows)
	}
	if gen.Started != flows {
		t.Fatal("Started counter mismatch")
	}
}

func TestBackgroundStopsAtDeadline(t *testing.T) {
	sched := eventq.NewScheduler()
	rng := rand.New(rand.NewSource(3))
	lastStart := eventq.Time(0)
	gen := NewBackground(sched, rng, hosts(4), eventq.Millisecond,
		100*eventq.Millisecond, func(src, dst packet.NodeID, bytes int64, class metrics.FlowClass, queryID int) {
			if sched.Now() > lastStart {
				lastStart = sched.Now()
			}
		})
	gen.Start()
	sched.Run()
	if lastStart > 100*eventq.Millisecond {
		t.Fatalf("flow started at %v, after deadline", lastStart)
	}
}

func TestQueryGenerator(t *testing.T) {
	sched := eventq.NewScheduler()
	rng := rand.New(rand.NewSource(4))
	type flow struct {
		src, dst packet.NodeID
		qid      int
	}
	var flows []flow
	queries := map[int]int{}
	gen := NewQueries(sched, rng, hosts(64), QueryConfig{
		QPS: 300, Degree: 40, ResponseBytes: 20_000,
	}, 100*eventq.Millisecond, func(src, dst packet.NodeID, bytes int64, class metrics.FlowClass, queryID int) {
		if bytes != 20_000 || class != metrics.ClassQuery {
			t.Error("wrong flow parameters")
		}
		flows = append(flows, flow{src, dst, queryID})
	})
	gen.OnQuery = func(qid, n int) { queries[qid] = n }
	gen.Start()
	sched.Run()
	// 300 qps x 0.1s = ~30 queries.
	if gen.Started < 15 || gen.Started > 50 {
		t.Fatalf("queries = %d, want ~30", gen.Started)
	}
	if len(queries) != gen.Started {
		t.Fatal("OnQuery not fired per query")
	}
	// Per query: 40 distinct responders, none equal to the target.
	perQuery := map[int]map[packet.NodeID]bool{}
	targets := map[int]packet.NodeID{}
	for _, f := range flows {
		if perQuery[f.qid] == nil {
			perQuery[f.qid] = map[packet.NodeID]bool{}
		}
		if perQuery[f.qid][f.src] {
			t.Fatal("duplicate responder in query")
		}
		perQuery[f.qid][f.src] = true
		if prev, ok := targets[f.qid]; ok && prev != f.dst {
			t.Fatal("query has multiple targets")
		}
		targets[f.qid] = f.dst
		if f.src == f.dst {
			t.Fatal("responder equals target")
		}
	}
	for qid, resp := range perQuery {
		if len(resp) != 40 {
			t.Fatalf("query %d has %d responders", qid, len(resp))
		}
		if queries[qid] != 40 {
			t.Fatalf("OnQuery reported %d flows", queries[qid])
		}
	}
}

func TestQueryFanInBeyondHostCount(t *testing.T) {
	sched := eventq.NewScheduler()
	rng := rand.New(rand.NewSource(5))
	count := map[packet.NodeID]int{}
	gen := NewQueries(sched, rng, hosts(8), QueryConfig{
		QPS: 1000, Degree: 20, ResponseBytes: 1000, MaxFanInPerHost: 3,
	}, 10*eventq.Millisecond, func(src, dst packet.NodeID, bytes int64, class metrics.FlowClass, queryID int) {
		if queryID == 0 {
			count[src]++
		}
	})
	gen.Start()
	sched.Run()
	if gen.Started == 0 {
		t.Skip("no query fired in window")
	}
	total := 0
	for h, c := range count {
		if c > 3 {
			t.Fatalf("host %d used %d times, max 3", h, c)
		}
		total += c
	}
	if total != 20 {
		t.Fatalf("query 0 had %d responders, want 20", total)
	}
}

func TestQueryConfigValidation(t *testing.T) {
	sched := eventq.NewScheduler()
	rng := rand.New(rand.NewSource(1))
	noop := func(src, dst packet.NodeID, bytes int64, class metrics.FlowClass, queryID int) {}
	bad := []QueryConfig{
		{QPS: 0, Degree: 1, ResponseBytes: 1},
		{QPS: 1, Degree: 0, ResponseBytes: 1},
		{QPS: 1, Degree: 1, ResponseBytes: 0},
		{QPS: 1, Degree: 100, ResponseBytes: 1}, // exceeds 7 hosts
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d should panic", i)
				}
			}()
			NewQueries(sched, rng, hosts(8), cfg, eventq.Second, noop)
		}()
	}
}

func TestPairsDisjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	hs := hosts(128)
	pairs := PairsShuffled(hs, rng)
	if len(pairs) != 64 {
		t.Fatalf("pairs = %d, want 64", len(pairs))
	}
	seen := map[packet.NodeID]bool{}
	for _, p := range pairs {
		if seen[p[0]] || seen[p[1]] || p[0] == p[1] {
			t.Fatal("pairs not node-disjoint")
		}
		seen[p[0]] = true
		seen[p[1]] = true
	}
}

func TestPairsOddHostCount(t *testing.T) {
	pairs := Pairs(hosts(7))
	if len(pairs) != 3 {
		t.Fatalf("pairs from 7 hosts = %d, want 3", len(pairs))
	}
}

func TestPairsAdjacent(t *testing.T) {
	pairs := Pairs(hosts(8))
	for i, p := range pairs {
		if p[0] != packet.NodeID(2*i) || p[1] != packet.NodeID(2*i+1) {
			t.Fatalf("pair %d = %v, want adjacent", i, p)
		}
	}
}

func TestExpDelayMean(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	mean := 10 * eventq.Millisecond
	var sum eventq.Time
	n := 20_000
	for i := 0; i < n; i++ {
		sum += expDelay(rng, mean)
	}
	got := float64(sum) / float64(n)
	if got < 0.95*float64(mean) || got > 1.05*float64(mean) {
		t.Fatalf("mean delay = %v, want ~%v", eventq.Time(got), mean)
	}
}

// Property: samples always fall within the distribution's support and the
// empirical CDF tracks the configured knots.
func TestQuickSizeDistSupport(t *testing.T) {
	d := WebSearchBackground()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 100; i++ {
			s := d.Sample(rng)
			if s < 1_000 || s > 10_000_000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quicktest.Config(t, 100)); err != nil {
		t.Fatal(err)
	}
}

// Property: responders are always valid hosts and respect fan-in caps.
func TestQuickPickResponders(t *testing.T) {
	f := func(seed int64, degRaw, fanRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		sched := eventq.NewScheduler()
		fan := int(fanRaw%3) + 1
		deg := int(degRaw)%(7*fan) + 1
		var got []packet.NodeID
		gen := NewQueries(sched, rng, hosts(8), QueryConfig{
			QPS: 1, Degree: deg, ResponseBytes: 1, MaxFanInPerHost: fan,
		}, eventq.Second, func(src, dst packet.NodeID, bytes int64, class metrics.FlowClass, queryID int) {
			got = append(got, src)
		})
		gen.fire()
		if len(got) != deg {
			return false
		}
		counts := map[packet.NodeID]int{}
		for _, h := range got {
			if h < 0 || h >= 8 {
				return false
			}
			counts[h]++
			if counts[h] > fan {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quicktest.Config(t, 300)); err != nil {
		t.Fatal(err)
	}
}
