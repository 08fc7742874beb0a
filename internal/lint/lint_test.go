package lint

import (
	"bytes"
	"os"
	"path/filepath"
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

func TestDroppedQueueResult(t *testing.T) {
	fs := lintFixture(t, "dibs/internal/fixdroppedq", "fixdroppedq.go", `
package fixdroppedq

import (
	"dibs/internal/packet"
	"dibs/internal/queue"
)

func Bad(q queue.Queue, p *packet.Packet) {
	q.Enqueue(p) // result discarded outright
}

func Good(q queue.Queue, p *packet.Packet) bool {
	_ = q.Enqueue(p)
	r := q.Enqueue(p)
	return r.Accepted
}
`)
	assertRule(t, fs, "sched-droppederr", 1)
}

// --- rng-taint: one fire and one stay-quiet fixture per seed form ---

// TestRNGTaintSeedArithmetic plants the two recorded catches — fig06's
// `o.Seed + int64(run)*7919` and the jellyfish retry seed — plus the
// math/rand and keyed-literal forms.
func TestRNGTaintSeedArithmetic(t *testing.T) {
	fs := lintFixture(t, "dibs/internal/fixtaintarith", "fixtaintarith.go", `
package fixtaintarith

import (
	"math/rand"

	"dibs/internal/rng"
)

type Opts struct{ Seed int64 }

type Config struct{ Seed int64 }

func once(n int, seed int64, attempt int) int { return n + attempt }

func Sweep(o Opts, runs int) {
	for run := 0; run < runs; run++ {
		var cfg Config
		cfg.Seed = o.Seed + int64(run)*7919 // collision-prone ad-hoc derivation
		_ = cfg
		_ = once(8, o.Seed+int64(run)*0x9E37, run)
		_ = Config{Seed: int64(uint64(o.Seed) ^ 0x7177E5)}
		_ = rand.NewSource(int64(run) * 31)
	}
	_ = rng.New(o.Seed*31, "workload")
}
`)
	assertRule(t, fs, "rng-taint", 5)
	for _, f := range fs {
		if f.Rule == "rng-taint" && !strings.HasPrefix(f.Msg, "ad-hoc seed arithmetic") {
			t.Errorf("unexpected rng-taint message: %s", f)
		}
	}
}

func TestRNGTaintWallClockSeed(t *testing.T) {
	fs := lintFixture(t, "dibs/internal/fixtaintclock", "fixtaintclock.go", `
package fixtaintclock

import (
	"math/rand"
	"os"
	"time"

	"dibs/internal/rng"
)

type Config struct{ Seed int64 }

func Fresh(cfg *Config) {
	_ = rng.New(time.Now().UnixNano(), "workload")
	_ = rand.NewSource(int64(os.Getpid()))
	cfg.Seed = time.Now().Unix()
	_ = Config{Seed: int64(time.Since(time.Time{}))}
}
`)
	assertRule(t, fs, "rng-taint", 4)
	for _, f := range fs {
		if f.Rule == "rng-taint" && !strings.HasPrefix(f.Msg, "seed derived from wall clock") {
			t.Errorf("unexpected rng-taint message: %s", f)
		}
	}
}

func TestRNGTaintCleanSeedsStayQuiet(t *testing.T) {
	fs := lintFixture(t, "dibs/internal/fixtaintclean", "fixtaintclean.go", `
package fixtaintclean

import (
	"fmt"
	"math/rand"

	"dibs/internal/rng"
)

type Opts struct{ Seed int64 }

type Config struct{ Seed int64 }

func once(n int, seed int64, attempt int) int { return n + attempt }

func Run(o Opts, runs int, seedRaw uint32) {
	var cfg Config
	cfg.Seed = o.Seed // plain threading is the sanctioned pattern
	_ = rng.New(o.Seed, "workload")
	_ = rng.New(42, "fixed")      // literal seeds are legal (tests, defaults)
	_ = rng.New(1<<40+7, "const") // constant arithmetic is a literal
	_ = rand.New(rand.NewSource(o.Seed))
	for run := 0; run < runs; run++ {
		// rng.Derive is the sanctioned derivation; its result is a
		// clean seed even after a conversion.
		cfg.Seed = int64(rng.Derive(uint64(o.Seed), fmt.Sprintf("run%d", run)))
		_ = once(8, o.Seed, run+1) // arithmetic outside the seed parameter
		_ = rng.New(int64(run), "trial")
		// Test-table seeds: arithmetic over no seed read or rng result.
		cfg.Seed = int64(seedRaw) + 1
		_ = Config{Seed: int64(run + 1)}
	}
}
`)
	assertRule(t, fs, "rng-taint", 0)
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

// --- JSON output ---

func TestWriteJSONGolden(t *testing.T) {
	fs := lintFixture(t, "dibs/internal/fixjson", "fixjson.go", `
package fixjson

import "math/rand"

func Roll() int { return rand.Intn(6) }
`)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, fs); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	golden := filepath.Join("testdata", "json_golden.json")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("JSON output mismatch\n got: %s\nwant: %s", buf.Bytes(), want)
	}
}

func TestWriteJSONEmptyIsArray(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, nil); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if got := buf.String(); got != "[]\n" {
		t.Errorf("empty findings = %q, want []\\n", got)
	}
}

// --- loader test variants ---

func TestLoadTestsAugmentsPackage(t *testing.T) {
	l := loaderForTest(t)
	pkgs, err := l.LoadTests("dibs/internal/queue")
	if err != nil {
		t.Fatalf("LoadTests: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages returned")
	}
	aug := pkgs[0]
	if aug.TestOf != "dibs/internal/queue" {
		t.Errorf("augmented package TestOf = %q, want the base path", aug.TestOf)
	}
	hasTestFile := false
	for _, f := range aug.Files {
		if strings.HasSuffix(l.Fset.Position(f.Pos()).Filename, "_test.go") {
			hasTestFile = true
		}
	}
	if !hasTestFile {
		t.Error("augmented package must include _test.go files")
	}
	// The production package stays cached unaugmented for other importers.
	base, err := l.Load("dibs/internal/queue")
	if err != nil {
		t.Fatalf("Load after LoadTests: %v", err)
	}
	for _, f := range base.Files {
		if strings.HasSuffix(l.Fset.Position(f.Pos()).Filename, "_test.go") {
			t.Error("production package cache was polluted with test files")
		}
	}
	// The repo's own test files must lint clean under the test-rule set
	// (literal-seeded rand.New in tests is legal; wall-clock seeding is not).
	if fs := l.Run(pkgs, Analyzers()); len(fs) != 0 {
		t.Errorf("internal/queue test build should lint clean, got %v", rulesOf(fs))
	}
}

// --- severity and test-file filtering ---

func TestSeverityStamped(t *testing.T) {
	fs := lintFixture(t, "dibs/internal/fixsev", "fixsev.go", `
package fixsev

import "math/rand"

func Roll() int { return rand.Intn(6) }
`)
	if len(fs) == 0 {
		t.Fatal("expected findings")
	}
	for _, f := range fs {
		if f.Severity != SevError {
			t.Errorf("finding %s has severity %q, want %q", f.Rule, f.Severity, SevError)
		}
	}
}

func TestTestFileFindingsFiltered(t *testing.T) {
	l := loaderForTest(t)
	pkg, err := l.LoadSynthetic("dibs/internal/fixtestfilter", map[string]string{
		"fixtestfilter.go": `
package fixtestfilter

func Placeholder() {}
`,
		"fixtestfilter_extra_test.go": `
package fixtestfilter

import (
	"math/rand"
	"time"

	"dibs/internal/rng"
)

func helperGlobalRand() int { return rand.Intn(6) } // nondet-globalrand: InTests

func helperClockSeed() {
	_ = rng.New(time.Now().UnixNano(), "flaky") // rng-taint: InTests
}

func helperTiming() int64 {
	start := time.Now() // nondet-wallclock: filtered out in tests
	return start.Unix()
}
`,
	})
	if err != nil {
		t.Fatalf("LoadSynthetic: %v", err)
	}
	fs := l.Run([]*Package{pkg}, Analyzers())
	assertRule(t, fs, "nondet-globalrand", 1)
	assertRule(t, fs, "rng-taint", 1)
	assertRule(t, fs, "nondet-wallclock", 0)
}
