package lint

import (
	"strings"
	"sync"
	"testing"
)

// A single loader is shared across tests: the stdlib source importer is the
// expensive part, and the loader caches every package it checks.
var (
	loaderOnce sync.Once
	testLoader *Loader
	loaderErr  error
)

func loaderForTest(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		testLoader, loaderErr = NewLoader(".")
	})
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return testLoader
}

// lintFixture type-checks one synthetic source file under the given import
// path (which controls sim-package scoping) and runs the full suite on it.
func lintFixture(t *testing.T, pkgPath, fileName, src string) []Finding {
	t.Helper()
	l := loaderForTest(t)
	pkg, err := l.LoadSynthetic(pkgPath, map[string]string{fileName: src})
	if err != nil {
		t.Fatalf("LoadSynthetic(%s): %v", pkgPath, err)
	}
	return l.Run([]*Package{pkg}, Analyzers())
}

func rulesOf(fs []Finding) []string {
	var out []string
	for _, f := range fs {
		out = append(out, f.Rule)
	}
	return out
}

func assertRule(t *testing.T, fs []Finding, rule string, want int) {
	t.Helper()
	n := 0
	for _, f := range fs {
		if f.Rule == rule {
			n++
			if f.Pos.Line == 0 || f.Pos.Filename == "" {
				t.Errorf("%s finding lacks a position: %+v", rule, f)
			}
		}
	}
	if n != want {
		t.Errorf("rule %s: got %d findings, want %d (all: %v)", rule, n, want, rulesOf(fs))
	}
}

func TestGlobalRandFlaggedInSimPackage(t *testing.T) {
	fs := lintFixture(t, "dibs/internal/fixglobalrand", "fixglobalrand.go", `
package fixglobalrand

import "math/rand"

func Roll() int {
	rand.Seed(42)
	return rand.Intn(6)
}
`)
	assertRule(t, fs, "nondet-globalrand", 2)
	for _, f := range fs {
		if f.Rule == "nondet-globalrand" && !strings.Contains(f.Msg, "rand.") {
			t.Errorf("message should name the function: %s", f.Msg)
		}
	}
}

func TestPlumbedRandAllowed(t *testing.T) {
	fs := lintFixture(t, "dibs/internal/fixplumbed", "fixplumbed.go", `
package fixplumbed

import "math/rand"

func Roll(rng *rand.Rand) int { return rng.Intn(6) }
`)
	if len(fs) != 0 {
		t.Errorf("method calls on a plumbed *rand.Rand must pass; got %v", rulesOf(fs))
	}
}

func TestRandConstructorOutsideRNGPackage(t *testing.T) {
	fs := lintFixture(t, "dibs/internal/fixrandnew", "fixrandnew.go", `
package fixrandnew

import "math/rand"

func Make(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
`)
	assertRule(t, fs, "nondet-randnew", 2)
}

func TestWallClockFlaggedInSimOnly(t *testing.T) {
	src := `
package fixclock

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`
	fs := lintFixture(t, "dibs/internal/fixclock", "fixclock_sim.go", src)
	assertRule(t, fs, "nondet-wallclock", 1)

	// The same code in a cmd/ package is outside the determinism perimeter.
	fs = lintFixture(t, "dibs/cmd/fixclock", "fixclock_cmd.go", src)
	assertRule(t, fs, "nondet-wallclock", 0)
}

func TestMapRangeSchedulingAndAggregation(t *testing.T) {
	fs := lintFixture(t, "dibs/internal/fixmaprange", "fixmaprange.go", `
package fixmaprange

import "dibs/internal/eventq"

func Bad(s *eventq.Scheduler, m map[int]int) []int {
	var order []int
	for k := range m {
		k := k
		s.After(eventq.Microsecond, func() { _ = k })
		order = append(order, k)
	}
	return order
}

func Good(s *eventq.Scheduler, xs []int) []int {
	var order []int
	for _, x := range xs {
		order = append(order, x)
	}
	for k := range map[int]int{} {
		local := []int{}
		local = append(local, k) // stays inside the loop: fine
		_ = local
	}
	return order
}
`)
	assertRule(t, fs, "nondet-maprange", 2) // one schedule + one escaping append
}

func TestVirtualTimeDurationLeak(t *testing.T) {
	fs := lintFixture(t, "dibs/internal/fixvtime", "fixvtime.go", `
package fixvtime

import (
	"time"

	"dibs/internal/eventq"
)

type LinkCfg struct {
	Delay time.Duration // should be eventq.Time
}

func Convert(d time.Duration) eventq.Time { return eventq.Time(d) }
`)
	// One for the struct field, one for the parameter declaration, one for
	// the direct cast.
	assertRule(t, fs, "vtime-duration", 3)
}

func TestRawNanosecondLiterals(t *testing.T) {
	fs := lintFixture(t, "dibs/internal/fixrawns", "fixrawns.go", `
package fixrawns

import "dibs/internal/eventq"

func Bad(s *eventq.Scheduler) {
	s.After(5000, func() {}) // raw ns magic number
	var t eventq.Time = 1_000_000
	_ = t
}

func Good(s *eventq.Scheduler) {
	s.After(5*eventq.Microsecond, func() {})
	s.After(1, func() {}) // small tie-break epsilon is fine
	if s.Now() > 3*eventq.Second {
		return
	}
}
`)
	assertRule(t, fs, "vtime-rawns", 2)
}

func TestTimeTimesTimeOverflow(t *testing.T) {
	fs := lintFixture(t, "dibs/internal/fixoverflow", "fixoverflow.go", `
package fixoverflow

import "dibs/internal/eventq"

func Bad(a, b eventq.Time) eventq.Time { return a * b }

func Good(a eventq.Time) eventq.Time { return 3 * a }
`)
	assertRule(t, fs, "vtime-overflow", 1)
}

func TestFloatEquality(t *testing.T) {
	fs := lintFixture(t, "dibs/internal/fixfloat", "fixfloat.go", `
package fixfloat

func Bad(p99, prev float64) bool { return p99 == prev }

func Guards(sum float64, n int) bool {
	return sum == 0 || n == 3 // exact-zero guard and int compare are fine
}
`)
	assertRule(t, fs, "float-eq", 1)
}

func TestSchedulingIntoThePast(t *testing.T) {
	fs := lintFixture(t, "dibs/internal/fixpast", "fixpast.go", `
package fixpast

import "dibs/internal/eventq"

func Bad(s *eventq.Scheduler, lag eventq.Time) {
	s.At(s.Now()-lag, func() {})
}

func Good(s *eventq.Scheduler, end, drain eventq.Time) {
	s.At(end-drain, func() {}) // plain absolute-time arithmetic is fine
}
`)
	assertRule(t, fs, "sched-past", 1)
}

func TestDroppedErrorReturn(t *testing.T) {
	fs := lintFixture(t, "dibs/internal/fixerr", "fixerr.go", `
package fixerr

import "errors"

func mayFail() error { return errors.New("boom") }

func Bad()  { mayFail() }
func Good() { _ = mayFail() }
`)
	assertRule(t, fs, "sched-droppederr", 1)
}

func TestIgnoreDirectiveSuppresses(t *testing.T) {
	fs := lintFixture(t, "dibs/internal/fixignore", "fixignore.go", `
package fixignore

import "math/rand"

func Roll() int {
	//dibslint:ignore nondet-globalrand fixture exercising suppression
	return rand.Intn(6)
}
`)
	assertRule(t, fs, "nondet-globalrand", 0)
	assertRule(t, fs, "lint-badignore", 0)
}

func TestIgnoreWithoutReasonIsReported(t *testing.T) {
	fs := lintFixture(t, "dibs/internal/fixbadignore", "fixbadignore.go", `
package fixbadignore

import "math/rand"

func Roll() int {
	//dibslint:ignore nondet-globalrand
	return rand.Intn(6)
}
`)
	// The bare directive does not suppress, and is itself a finding.
	assertRule(t, fs, "nondet-globalrand", 1)
	assertRule(t, fs, "lint-badignore", 1)
}

func TestIgnoreOnlySuppressesNamedRule(t *testing.T) {
	fs := lintFixture(t, "dibs/internal/fixwrongrule", "fixwrongrule.go", `
package fixwrongrule

import "math/rand"

func Roll() int {
	//dibslint:ignore nondet-wallclock wrong rule named on purpose
	return rand.Intn(6)
}
`)
	assertRule(t, fs, "nondet-globalrand", 1)
	// A directive naming the wrong rule suppresses nothing, so it is also
	// reported as stale.
	assertRule(t, fs, "lint-staleignore", 1)
}

func TestStaleIgnoreReported(t *testing.T) {
	fs := lintFixture(t, "dibs/internal/fixstale", "fixstale.go", `
package fixstale

import "math/rand"

func Roll() int {
	//dibslint:ignore nondet-globalrand fixture exercises the suppression
	n := rand.Intn(6)
	//dibslint:ignore nondet-globalrand nothing on the next line trips this
	return n
}
`)
	// The first directive is live; the second suppresses nothing.
	assertRule(t, fs, "nondet-globalrand", 0)
	assertRule(t, fs, "lint-staleignore", 1)
}

func TestAllRulesDocumented(t *testing.T) {
	docs := AllRules()
	if len(docs) < 10 {
		t.Fatalf("expected a full rule catalogue, got %d entries", len(docs))
	}
	seen := map[string]bool{}
	for _, d := range docs {
		if d.ID == "" || d.Doc == "" {
			t.Errorf("rule with empty ID or doc: %+v", d)
		}
		if seen[d.ID] {
			t.Errorf("duplicate rule ID %s", d.ID)
		}
		seen[d.ID] = true
	}
}

func TestFindingString(t *testing.T) {
	fs := lintFixture(t, "dibs/internal/fixformat", "fixformat.go", `
package fixformat

import "math/rand"

func Roll() int { return rand.Intn(6) }
`)
	if len(fs) == 0 {
		t.Fatal("expected a finding")
	}
	s := fs[0].String()
	if !strings.Contains(s, "fixformat.go:") || !strings.Contains(s, "nondet-globalrand") {
		t.Errorf("finding format %q lacks file:line or rule id", s)
	}
}

func TestGoroutineFlaggedInSimPackage(t *testing.T) {
	fs := lintFixture(t, "dibs/internal/fixgoroutine", "fixgoroutine.go", `
package fixgoroutine

import (
	"sync"
	"sync/atomic"
)

type S struct {
	mu sync.Mutex
	n  atomic.Int64
}

func (s *S) Kick() {
	go func() { s.n.Add(1) }()
}
`)
	// One go statement + three sync/atomic identifier uses (Mutex, Int64, Add... Add is a method).
	n := 0
	for _, f := range fs {
		if f.Rule == "nondet-goroutine" {
			n++
		}
	}
	if n < 3 {
		t.Errorf("nondet-goroutine: got %d findings, want >= 3 (go stmt + sync.Mutex + atomic.Int64): %v", n, rulesOf(fs))
	}
}

func TestGoroutineAllowedInRunnerAndCmd(t *testing.T) {
	src := `
package fixpool

import "sync"

func Fan(n int, fn func(int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); fn(i) }()
	}
	wg.Wait()
}
`
	// internal/runner is the sanctioned home for parallelism.
	fs := lintFixture(t, "dibs/internal/runner", "fixpool.go", src)
	assertRule(t, fs, "nondet-goroutine", 0)

	// cmd/ binaries are outside the determinism perimeter entirely.
	fs = lintFixture(t, "dibs/cmd/fixpool", "fixpool.go", src)
	assertRule(t, fs, "nondet-goroutine", 0)

	// internal/pdes holds the shard-worker spawn; its isolation is proven at
	// runtime (TestShardCountInvariance under -race), not by lint.
	fs = lintFixture(t, "dibs/internal/pdes", "fixpool.go", src)
	assertRule(t, fs, "nondet-goroutine", 0)

	// The allowlist is by exact package, not by resemblance: any other
	// simulation package spawning goroutines still flags. No annotation
	// buys an exemption either — ignore is the only directive there is, so
	// any other //dibslint: comment is itself a finding.
	fs = lintFixture(t, "dibs/internal/pdeslike", "fixpool.go", src)
	if n := countRule(fs, "nondet-goroutine"); n == 0 {
		t.Errorf("nondet-goroutine: goroutines in dibs/internal/pdeslike were not flagged; the allowlist is too wide")
	}
	fs = lintFixture(t, "dibs/internal/fixcoord", "fixcoord.go", `
package fixcoord

//dibslint:allow coordinator drives the barrier between windows
func Drive(done chan int) {
	go func() { done <- 1 }()
}
`)
	assertRule(t, fs, "nondet-goroutine", 1)
	assertRule(t, fs, "lint-badignore", 1)
}

func countRule(fs []Finding, rule string) int {
	n := 0
	for _, f := range fs {
		if f.Rule == rule {
			n++
		}
	}
	return n
}

func TestPacketLiteralFlaggedInSimPackage(t *testing.T) {
	fs := lintFixture(t, "dibs/internal/fixhotpath", "fixhotpath.go", `
package fixhotpath

import "dibs/internal/packet"

func Emit() *packet.Packet {
	return &packet.Packet{Kind: packet.Data, TTL: 255}
}

func EmitValue() packet.Packet {
	return packet.Packet{Kind: packet.Ack}
}
`)
	assertRule(t, fs, "hotpath-alloc", 2)
}

func TestPacketLiteralAllowedOutsidePerimeter(t *testing.T) {
	fs := lintFixture(t, "dibs/cmd/fixhotpathcmd", "fixhotpathcmd.go", `
package fixhotpathcmd

import "dibs/internal/packet"

func Probe() *packet.Packet { return &packet.Packet{Kind: packet.Data} }
`)
	assertRule(t, fs, "hotpath-alloc", 0)
}

func TestPacketLiteralIgnoreDirective(t *testing.T) {
	fs := lintFixture(t, "dibs/internal/fixhotpathign", "fixhotpathign.go", `
package fixhotpathign

import "dibs/internal/packet"

func Probe() *packet.Packet {
	//dibslint:ignore hotpath-alloc cold path, one packet per run
	return &packet.Packet{Kind: packet.Data}
}
`)
	assertRule(t, fs, "hotpath-alloc", 0)
}

func TestPacketLiteralAllowedInTests(t *testing.T) {
	l := loaderForTest(t)
	pkg, err := l.LoadSynthetic("dibs/internal/fixhotpathtest", map[string]string{
		"fixhotpathtest.go": `
package fixhotpathtest

import "dibs/internal/packet"

func Use(p *packet.Packet) int { return p.TTL }
`,
		"fixhotpathtest_extra_test.go": `
package fixhotpathtest

import "dibs/internal/packet"

func helperPacket() *packet.Packet { return &packet.Packet{Kind: packet.Data, TTL: 8} }
`,
	})
	if err != nil {
		t.Fatalf("LoadSynthetic: %v", err)
	}
	fs := l.Run([]*Package{pkg}, Analyzers())
	assertRule(t, fs, "hotpath-alloc", 0)
}
