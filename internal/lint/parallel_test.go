package lint

import (
	"bytes"
	"fmt"
	"testing"
)

// A batch of synthetic packages with a known spread of findings, used to
// prove that parallel analysis is observably identical to serial.
func parallelCorpus(t *testing.T) []*Package {
	t.Helper()
	l := loaderForTest(t)
	var pkgs []*Package
	for i := 0; i < 6; i++ {
		path := fmt.Sprintf("dibs/internal/fixpar%d", i)
		src := fmt.Sprintf(`
package fixpar%d

import (
	"errors"
	"math/rand"
	"time"

	"dibs/internal/rng"
)

func mayFail() error { return errors.New("boom") }

func DroppedErr() { mayFail() }

func ClockSeed() { _ = rng.New(time.Now().UnixNano(), "workload") }

func GlobalRand() int { return rand.Intn(6) }

func SameRate(a, b float64) bool { return a == b }
`, i)
		pkg, err := l.LoadSynthetic(path, map[string]string{fmt.Sprintf("fixpar%d.go", i): src})
		if err != nil {
			t.Fatalf("LoadSynthetic(%s): %v", path, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs
}

// The golden property behind the -workers flag: RunParallel must produce
// byte-identical output to the serial path at any worker count, so a
// parallel CI run can never disagree with a laptop run.
func TestRunParallelMatchesSerial(t *testing.T) {
	l := loaderForTest(t)
	pkgs := parallelCorpus(t)

	serial := l.Run(pkgs, Analyzers())
	for _, rule := range []string{"sched-droppederr", "rng-taint", "nondet-globalrand", "nondet-wallclock", "float-eq"} {
		assertRule(t, serial, rule, len(pkgs))
	}
	var want bytes.Buffer
	if err := WriteJSON(&want, serial); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 8} {
		got := l.RunParallel(pkgs, Analyzers(), workers)
		var buf bytes.Buffer
		if err := WriteJSON(&buf, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), buf.Bytes()) {
			t.Errorf("workers=%d: output diverges from serial run\nserial:\n%s\nparallel:\n%s",
				workers, want.String(), buf.String())
		}
	}
}

// Repeated parallel runs over the same loader must also agree with each
// other.
func TestRunParallelStableAcrossRuns(t *testing.T) {
	l := loaderForTest(t)
	pkgs := parallelCorpus(t)
	var first bytes.Buffer
	if err := WriteJSON(&first, l.RunParallel(pkgs, Analyzers(), 8)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		var buf bytes.Buffer
		if err := WriteJSON(&buf, l.RunParallel(pkgs, Analyzers(), 8)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), buf.Bytes()) {
			t.Errorf("run %d diverged from first parallel run", i)
		}
	}
}
