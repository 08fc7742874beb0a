package lint

import "testing"

// The fluid engine is where float rates and coarse virtual-time ticks meet.
// These fixtures pin the suite on fluid-shaped code: tick arithmetic that
// passes through ns² is flagged, and tolerance compares and eventq-typed
// ticks stay quiet.

func TestFluidStyleVirtualTimeMisuse(t *testing.T) {
	fs := lintFixture(t, "dibs/internal/fixfluidtick", "fixfluidtick.go", `
package fixfluidtick

import "dibs/internal/eventq"

type Engine struct {
	Tick   eventq.Time
	Window eventq.Time
}

// Weight scales a tick against the averaging window through ns².
func (e *Engine) Weight(elapsed eventq.Time) eventq.Time {
	return e.Tick * elapsed / e.Window
}
`)
	assertRule(t, fs, "vtime-overflow", 1)
}

func TestFluidStyleCleanPatterns(t *testing.T) {
	fs := lintFixture(t, "dibs/internal/fixfluidok", "fixfluidok.go", `
package fixfluidok

import "dibs/internal/eventq"

const rateEps = 1e-9

type flow struct {
	rate float64
	prev float64
}

// Tolerance compares and eventq-typed ticks are the sanctioned spellings.
func Converged(fl []*flow) bool {
	for _, f := range fl {
		d := f.rate - f.prev
		if d < 0 {
			d = -d
		}
		if d > rateEps*f.prev {
			return false
		}
	}
	return true
}

type Engine struct {
	Tick eventq.Time
}

func (e *Engine) Arm(s *eventq.Scheduler) {
	s.After(100*eventq.Microsecond, func() {})
}
`)
	if len(fs) != 0 {
		for _, f := range fs {
			t.Errorf("unexpected finding: %s", f)
		}
	}
}

// TestRealFluidPackageClean is the acceptance gate: the production fluid
// solver passes the full suite. It is also the one check that fails on
// M30's promotion victims gathered from a map.
func TestRealFluidPackageClean(t *testing.T) {
	l := loaderForTest(t)
	pkg, err := l.Load("dibs/internal/fluid")
	if err != nil {
		t.Fatalf("Load(dibs/internal/fluid): %v", err)
	}
	fs := l.Run([]*Package{pkg}, Analyzers())
	if len(fs) != 0 {
		for _, f := range fs {
			t.Errorf("unexpected finding: %s", f)
		}
	}
}
