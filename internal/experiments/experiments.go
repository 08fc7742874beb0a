// Package experiments regenerates every table and figure of the paper's
// evaluation (§5). Each experiment is a named function producing one or
// more Tables — the numeric series behind the corresponding plot — plus
// notes recording the qualitative claim the series should exhibit.
//
// Most experiments are one-axis sweeps over the paper's default setup and
// are declared as data: a sweep value in sweeps.go names the axis settings,
// the compared arms (usually DCTCP vs DCTCP+DIBS) and, per table, which
// metric of which arm fills each column. To add one, append a sweep to
// that list; the shared executor declares the points, runs them through
// the worker pool and reduces the results. An experiment stays a plain
// function when its tables need more than one metric per point: fig01,
// fig02, fig04 and fig05 lay out the instruments' products
// (Results.Collector's best path, event log and monitors) against the
// topology, and fig06 aggregates a grid of seeds.
//
// Absolute milliseconds differ from the paper (its testbed constants are
// not fully specified); the shapes — who wins, by what factor, where the
// crossover or breaking point falls — are the reproduction target and are
// recorded against the paper in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"dibs/internal/eventq"
	"dibs/internal/netsim"
	"dibs/internal/runner"
)

// Opts controls experiment scale and logging.
type Opts struct {
	// Seed is the base RNG seed; experiments derive per-run seeds.
	Seed int64
	// Scale multiplies traffic-generation durations; 1.0 is the standard
	// scale used in EXPERIMENTS.md, smaller values run faster (benches).
	Scale float64
	// Workers bounds how many sweep points run concurrently; <=0 means
	// GOMAXPROCS, 1 forces the serial reference path. Results and log
	// lines are identical for every value — see internal/runner.
	Workers int
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)
}

// DefaultOpts returns the standard full-scale options.
func DefaultOpts() Opts { return Opts{Seed: 1, Scale: 1} }

func (o *Opts) normalize() {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// dur scales a base duration, flooring at 20ms so even quick runs see a
// few queries.
func (o *Opts) dur(base eventq.Time) eventq.Time {
	d := eventq.Time(float64(base) * o.Scale)
	if d < 20*eventq.Millisecond {
		d = 20 * eventq.Millisecond
	}
	return d
}

func (o *Opts) logf(format string, args ...any) {
	if o.Log != nil {
		o.Log(format, args...)
	}
}

// Row is one x-position of a table.
type Row struct {
	X    string
	Vals []float64
}

// Table is the numeric series behind one figure panel.
type Table struct {
	ID      string
	Title   string
	XLabel  string
	Columns []string
	Rows    []Row
	Notes   []string
}

// AddRow appends a row.
func (t *Table) AddRow(x string, vals ...float64) {
	if len(vals) != len(t.Columns) {
		panic(fmt.Sprintf("experiments: row %q has %d vals, table %s has %d columns",
			x, len(vals), t.ID, len(t.Columns)))
	}
	t.Rows = append(t.Rows, Row{X: x, Vals: vals})
}

// Note appends a free-text note.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "## %s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns)+1)
	widths[0] = len(t.XLabel)
	for _, r := range t.Rows {
		if len(r.X) > widths[0] {
			widths[0] = len(r.X)
		}
	}
	cells := make([][]string, len(t.Rows))
	for i, r := range t.Rows {
		cells[i] = make([]string, len(r.Vals))
		for j, v := range r.Vals {
			cells[i][j] = formatVal(v)
		}
	}
	for j, c := range t.Columns {
		widths[j+1] = len(c)
		for i := range t.Rows {
			if len(cells[i][j]) > widths[j+1] {
				widths[j+1] = len(cells[i][j])
			}
		}
	}
	fmt.Fprintf(w, "%-*s", widths[0], t.XLabel)
	for j, c := range t.Columns {
		fmt.Fprintf(w, "  %*s", widths[j+1], c)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.Repeat("-", sum(widths)+2*len(t.Columns)))
	for i, r := range t.Rows {
		fmt.Fprintf(w, "%-*s", widths[0], r.X)
		for j := range r.Vals {
			fmt.Fprintf(w, "  %*s", widths[j+1], cells[i][j])
		}
		fmt.Fprintln(w)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func formatVal(v float64) string {
	switch {
	case math.IsNaN(v):
		return "-"
	case v != 0 && math.Abs(v) < 0.01:
		return fmt.Sprintf("%.4f", v)
	case math.Abs(v) >= 10000:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

func sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

// Experiment is a registered, runnable experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(Opts) []*Table
}

var registry []Experiment

func register(id, title string, run func(Opts) []*Table) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// All returns the registered experiments in a stable order.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID returns the experiment with the given ID, or false.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// --- shared run helpers ---

// paperConfig is DefaultConfig with experiment-scale duration applied.
func (o *Opts) paperConfig(base eventq.Time) netsim.Config {
	cfg := netsim.DefaultConfig()
	cfg.Seed = o.Seed
	cfg.Duration = o.dur(base)
	cfg.Drain = 300 * eventq.Millisecond
	return cfg
}

// point is one independent run of a sweep: a label plus a frozen Config.
// Sweeps declare their full point list up front and hand it to runPoints,
// which is what lets the runner execute them on several cores.
type point struct {
	label string
	cfg   netsim.Config
}

// runPoints executes the declared points — in parallel when o.Workers
// allows — and returns results in point order. Each run is a pure function
// of its Config, and log lines are emitted after collection in point
// order, so output is byte-identical for every worker count.
func (o *Opts) runPoints(points []point) []*netsim.Results {
	results := runner.Map(o.Workers, len(points), func(i int) *netsim.Results {
		return netsim.Build(points[i].cfg).Run()
	})
	for i, r := range results {
		o.logf("%-40s %s", points[i].label, r)
	}
	return results
}
