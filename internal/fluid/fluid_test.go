package fluid

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dibs/internal/eventq"
	"dibs/internal/rng"
)

// refLink is refSolve's per-link scratch: the solver state Link carried
// before it moved into the solver's dense arrays.
type refLink struct {
	avail      float64 // residual capacity not yet allocated
	availCap   float64 // residual capacity at round start
	unfrozen   int     // flows not yet frozen on this link
	fluidBps   float64 // sum of allocated fluid rates
	bottleneck bool    // some flow's rate was frozen first at this link
}

// refSolve is the oracle the indexed solver is held to: progressive filling
// as it was written before the solver had indices, rescanning every active
// link for the round minimum and every flow for the bottleneck test in
// each round. The arithmetic and the visit order are the original's; only
// the scratch state lives in maps instead of on Link and Flow. It sets
// each flow's rateBps and bneck, as solve does, and returns the per-link
// results.
func refSolve(e *Engine) map[*Link]*refLink {
	ref := make(map[*Link]*refLink, len(e.active))
	share := func(l *Link) float64 { return ref[l].avail / float64(ref[l].unfrozen) }
	frozen := make(map[*Flow]bool, len(e.flows))
	for _, l := range e.active {
		avail := float64(l.CapBps) - l.pktBps
		if floor := minResidualFrac * float64(l.CapBps); avail < floor {
			avail = floor
		}
		ref[l] = &refLink{avail: avail, availCap: avail, unfrozen: l.nflows}
	}
	remaining := 0
	for _, f := range e.flows {
		frozen[f] = false
		f.rateBps = 0
		remaining++
	}
	for remaining > 0 {
		// The tightest per-flow share over all contended links.
		min := math.MaxFloat64
		for _, l := range e.active {
			if ref[l].unfrozen > 0 && share(l) < min {
				min = share(l)
			}
		}
		progressed := false
		for _, f := range e.flows {
			if frozen[f] {
				continue
			}
			var at *Link
			for _, l := range f.Path {
				if ref[l].unfrozen > 0 && share(l) <= min*(1+rateEps) {
					at = l
					break
				}
			}
			if at == nil {
				continue
			}
			if b := f.bneck; b != nil && b != at && ref[b].unfrozen > 0 && share(b) <= min*(1+stickFrac) {
				for _, l := range f.Path {
					if l == b {
						at = b
						break
					}
				}
			}
			f.bneck = at
			ref[at].bottleneck = true
			frozen[f] = true
			f.rateBps = min
			remaining--
			progressed = true
			for _, l := range f.Path {
				r := ref[l]
				r.avail -= min
				if r.avail < 0 {
					r.avail = 0
				}
				r.unfrozen--
				r.fluidBps += min
			}
		}
		if !progressed {
			break
		}
	}
	return ref
}

// instance is a random solver input: links with capacities and measured
// packet loads, and flows over paths of distinct links.
type instance struct {
	r     *rand.Rand
	e     *Engine
	links []*Link
	next  uint64 // next flow ID
}

func newInstance(seed int64) *instance {
	r := rng.New(seed, "fluid/instance")
	in := &instance{r: r, e: NewEngine(eventq.NewScheduler(), 100*eventq.Microsecond), next: uint64(r.Intn(5))}
	// A few capacity classes make exact share ties common.
	caps := []int64{1e9, 1e9, 10e9, 40e9, 1 + r.Int63n(100e9)}
	for i := 1 + r.Intn(40); i > 0; i-- {
		l := &Link{CapBps: caps[r.Intn(len(caps))]}
		in.links = append(in.links, l)
		in.e.AddLink(l)
	}
	for i := 1 + r.Intn(60); i > 0; i-- {
		in.admit()
	}
	in.load()
	return in
}

// admit adds a flow over 1–8 distinct random links.
func (in *instance) admit() {
	n := 1 + in.r.Intn(min(8, len(in.links)))
	path := make([]*Link, 0, n)
	for _, i := range in.r.Perm(len(in.links))[:n] {
		path = append(path, in.links[i])
	}
	in.e.Admit(&Flow{ID: in.next, Path: path, Remaining: 1})
	in.next += 1 + uint64(in.r.Intn(3))
}

// load draws each link's measured packet load: none (ties), a shared value
// (ties across capacity classes), a fraction of capacity, or more than 95%
// of it (the residual floor).
func (in *instance) load() {
	shared := in.r.Float64() * 1e8
	for _, l := range in.links {
		switch in.r.Intn(5) {
		case 0:
			l.pktBps = 0
		case 1:
			l.pktBps = shared
		case 2:
			l.pktBps = in.r.Float64() * 0.5 * float64(l.CapBps)
		case 3:
			l.pktBps = (0.95 + float64(0.2*in.r.Float64())) * float64(l.CapBps)
		default:
			l.pktBps = in.r.Float64() * 1e3
		}
	}
}

// step perturbs the instance between ticks: new loads, and sometimes a
// flow admitted or removed. Flows keep their bneck from the last solve.
func (in *instance) step() {
	in.load()
	switch in.r.Intn(3) {
	case 0:
		in.admit()
	case 1:
		if len(in.e.flows) > 1 {
			in.e.remove(in.e.flows[in.r.Intn(len(in.e.flows))])
		}
	}
}

// linkName identifies a link across solvers by registration order.
func (in *instance) linkName(l *Link) int {
	for i, x := range in.links {
		if x == l {
			return i
		}
	}
	return -1
}

// TestSolveMatchesReference holds the indexed solver to refSolve bit for
// bit — rates, per-link fluid throughput and bottleneck flags, and every
// flow's sticky bottleneck — over seeded random instances, several ticks
// each so that bnecks carry over and the indices are rebuilt.
func TestSolveMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 1500; seed++ {
		in := newInstance(seed)
		e := in.e
		for tick := 0; tick < 4; tick++ {
			if tick > 0 {
				in.step()
			}
			e.rebuildActive()
			carried := make([]*Link, len(e.flows))
			for j, f := range e.flows {
				carried[j] = f.bneck
			}
			ref := refSolve(e)
			wantRate := make([]float64, len(e.flows))
			wantBneck := make([]*Link, len(e.flows))
			for j, f := range e.flows {
				wantRate[j], wantBneck[j] = f.rateBps, f.bneck
				f.bneck = carried[j]
			}
			e.solve()
			where := fmt.Sprintf("seed %d tick %d", seed, tick)
			for j, f := range e.flows {
				if math.Float64bits(f.rateBps) != math.Float64bits(wantRate[j]) {
					t.Fatalf("%s: flow %d rate %v, reference %v", where, f.ID, f.rateBps, wantRate[j])
				}
				if f.bneck != wantBneck[j] {
					t.Fatalf("%s: flow %d bneck link %d, reference link %d", where, f.ID, in.linkName(f.bneck), in.linkName(wantBneck[j]))
				}
			}
			for i, l := range e.active {
				r := ref[l]
				if math.Float64bits(e.s.links[i].fluidBps) != math.Float64bits(r.fluidBps) {
					t.Fatalf("%s: link %d fluidBps %v, reference %v", where, in.linkName(l), e.s.links[i].fluidBps, r.fluidBps)
				}
				if math.Float64bits(e.s.links[i].availCap) != math.Float64bits(r.availCap) {
					t.Fatalf("%s: link %d availCap %v, reference %v", where, in.linkName(l), e.s.links[i].availCap, r.availCap)
				}
				if e.s.links[i].bottleneck != r.bottleneck {
					t.Fatalf("%s: link %d bottleneck %v, reference %v", where, in.linkName(l), e.s.links[i].bottleneck, r.bottleneck)
				}
			}
		}
	}
}

// linkRates sums the allocated rates on each active link and records the
// largest one.
func linkRates(e *Engine) (sum, largest []float64) {
	sum = make([]float64, len(e.active))
	largest = make([]float64, len(e.active))
	for _, f := range e.flows {
		for _, l := range f.Path {
			sum[l.idx] += f.rateBps
			largest[l.idx] = max(largest[l.idx], f.rateBps)
		}
	}
	return sum, largest
}

// TestSolveIsMaxMinFair checks the allocation itself on random instances:
// no link carries more than its residual capacity, and every flow has a
// bottleneck — a saturated path link on which no flow gets more than it.
func TestSolveIsMaxMinFair(t *testing.T) {
	const tol = 1e-9
	for seed := int64(1); seed <= 300; seed++ {
		in := newInstance(seed)
		e := in.e
		e.rebuildActive()
		e.solve()
		sum, largest := linkRates(e)
		for i, l := range e.active {
			if sum[i] > e.s.links[i].availCap*(1+tol) {
				t.Fatalf("seed %d: link %d carries %v over residual capacity %v", seed, in.linkName(l), sum[i], e.s.links[i].availCap)
			}
		}
		for _, f := range e.flows {
			if f.rateBps <= 0 {
				t.Fatalf("seed %d: flow %d got rate %v", seed, f.ID, f.rateBps)
			}
			bottlenecked := false
			for _, l := range f.Path {
				i := l.idx
				if sum[i] >= e.s.links[i].availCap*(1-tol) && f.rateBps >= largest[i]*(1-tol) {
					bottlenecked = true
				}
			}
			if !bottlenecked {
				t.Fatalf("seed %d: flow %d at %v has no saturated path link where its rate is the largest", seed, f.ID, f.rateBps)
			}
		}
	}
}

// TestSolveIgnoresAdmissionOrder admits the same flows in shuffled orders
// and requires bit-identical rates: the engine orders flows by ID, never
// by arrival.
func TestSolveIgnoresAdmissionOrder(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		in := newInstance(seed)
		in.e.rebuildActive()
		in.e.solve()
		want := make(map[uint64]float64, len(in.e.flows))
		for _, f := range in.e.flows {
			want[f.ID] = f.rateBps
		}
		r := rng.New(seed, "fluid/shuffle")
		for trial := 0; trial < 3; trial++ {
			e := NewEngine(eventq.NewScheduler(), 100*eventq.Microsecond)
			twin := make(map[*Link]*Link, len(in.links))
			for _, l := range in.links {
				twin[l] = &Link{CapBps: l.CapBps, pktBps: l.pktBps}
				e.AddLink(twin[l])
			}
			for _, i := range r.Perm(len(in.e.flows)) {
				f := in.e.flows[i]
				path := make([]*Link, len(f.Path))
				for h, l := range f.Path {
					path[h] = twin[l]
				}
				e.Admit(&Flow{ID: f.ID, Path: path, Remaining: 1})
			}
			e.rebuildActive()
			e.solve()
			for _, f := range e.flows {
				if math.Float64bits(f.rateBps) != math.Float64bits(want[f.ID]) {
					t.Fatalf("seed %d trial %d: flow %d rate %v, in ID-order admission %v", seed, trial, f.ID, f.rateBps, want[f.ID])
				}
			}
		}
	}
}

// TestSolveClosedForms checks two allocations known in closed form: N
// flows on one link share it equally, and on a parking-lot line the long
// flow gets half the tightest link while each one-hop flow takes the rest
// of its own.
func TestSolveClosedForms(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 64} {
		e := NewEngine(eventq.NewScheduler(), 100*eventq.Microsecond)
		l := &Link{CapBps: 10e9}
		e.AddLink(l)
		for i := 0; i < n; i++ {
			e.Admit(&Flow{ID: uint64(i), Path: []*Link{l}, Remaining: 1})
		}
		e.rebuildActive()
		e.solve()
		want := float64(l.CapBps) / float64(n)
		for _, f := range e.flows {
			if math.Float64bits(f.rateBps) != math.Float64bits(want) {
				t.Fatalf("%d flows on one link: flow %d rate %v, want C/N = %v", n, f.ID, f.rateBps, want)
			}
		}
	}

	// Parking lot: link i has capacity (i+2)·1 Gb/s except link 3, the
	// tightest at 1.5 Gb/s. Flow 0 crosses every link; flow i+1 only link i.
	e := NewEngine(eventq.NewScheduler(), 100*eventq.Microsecond)
	var line []*Link
	for i := 0; i < 6; i++ {
		c := int64(i+2) * 1e9
		if i == 3 {
			c = 1.5e9
		}
		l := &Link{CapBps: c}
		line = append(line, l)
		e.AddLink(l)
	}
	e.Admit(&Flow{ID: 0, Path: line, Remaining: 1})
	for i, l := range line {
		e.Admit(&Flow{ID: uint64(i + 1), Path: []*Link{l}, Remaining: 1})
	}
	e.rebuildActive()
	e.solve()
	long := float64(float64(line[3].CapBps) / 2)
	if math.Float64bits(e.flows[0].rateBps) != math.Float64bits(long) {
		t.Fatalf("parking lot: long flow rate %v, want %v", e.flows[0].rateBps, long)
	}
	for i, l := range line {
		want := float64(l.CapBps) - long
		if i == 3 {
			want = long
		}
		if got := e.flows[i+1].rateBps; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("parking lot: one-hop flow on link %d rate %v, want %v", i, got, want)
		}
	}
}

// TestSolveAllocatesNothing: a steady-state tick reuses the dense indices.
func TestSolveAllocatesNothing(t *testing.T) {
	in := newInstance(7)
	in.e.rebuildActive()
	in.e.solve()
	if a := testing.AllocsPerRun(100, in.e.solve); a != 0 {
		t.Fatalf("solve allocated %v times per call", a)
	}
}

// longHybridShape is the fluid state of the long_hybrid benchmark workload
// in steady state: a K=8 fabric's 768 directed links, 127 flows each over
// its host NIC and the destination ToR's host link, and packet loads that
// are mostly decayed to a few bits per second, so that shares fall into
// clusters a round each.
func longHybridShape() *Engine {
	r := rng.New(1, "fluid/bench")
	e := NewEngine(eventq.NewScheduler(), 100*eventq.Microsecond)
	links := make([]*Link, 768)
	for i := range links {
		links[i] = &Link{CapBps: 1e9}
		e.AddLink(links[i])
	}
	for f := 0; f < 127; f++ {
		e.Admit(&Flow{ID: uint64(f), Path: []*Link{links[f], links[128+(f^1)]}, Remaining: 1})
	}
	for _, l := range links {
		l.pktBps = float64(float64(r.Intn(28))*1e6) + float64(0.5*r.Float64())
	}
	e.rebuildActive()
	return e
}

func BenchmarkSolve(b *testing.B) {
	e := longHybridShape()
	e.solve()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.solve()
	}
}

// sharedShape is the tick micro-benchmark's instance: 128 flows on 6-link
// paths spread over 768 links, so that links carry several flows each, and
// no packet load.
func sharedShape() *Engine {
	e := NewEngine(eventq.NewScheduler(), 100*eventq.Microsecond)
	links := make([]*Link, 768)
	for i := range links {
		links[i] = &Link{CapBps: 1e9}
		e.AddLink(links[i])
	}
	for f := 0; f < 128; f++ {
		path := make([]*Link, 6)
		for h := range path {
			path[h] = links[(f*6+h*131)%len(links)]
		}
		e.Admit(&Flow{ID: uint64(f), Path: path, Remaining: 1})
	}
	e.rebuildActive()
	return e
}

func BenchmarkSolveShared(b *testing.B) {
	e := sharedShape()
	e.solve()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.solve()
	}
}
