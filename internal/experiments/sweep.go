package experiments

import (
	"fmt"

	"dibs/internal/eventq"
	"dibs/internal/netsim"
	"dibs/internal/workload"
)

// sweep is a one-axis experiment declared as data. Every point is the paper
// configuration at one axis setting under one arm; every table cell is one
// metric of one arm's run at the row's setting. points declares the runs and
// reduce turns their results into tables, so the two halves can be driven
// separately.
type sweep struct {
	id, title string
	base      eventq.Time          // traffic duration before Opts.Scale
	common    func(*netsim.Config) // optional change applied to every point
	xlabel    string
	axis      []setting
	arms      []arm
	tables    []tableSpec
}

// setting is one x-position of a sweep.
type setting struct {
	row, log string // table row label; log label, after the sweep ID
	set      func(*netsim.Config)
}

// arm is one compared variant, run at every setting.
type arm struct {
	suffix string               // appended to the setting's log label
	set    func(*netsim.Config) // nil runs the setting as is
}

// tableSpec is one output table of a sweep: one row per setting.
type tableSpec struct {
	id, title, note string
	cols            []column
}

// column is one series: a metric of one arm's run.
type column struct {
	header string
	arm    int
	metric func(*netsim.Results) float64
}

// points declares the sweep's runs, setting-major: all arms of the first
// setting, then all arms of the next.
func (s sweep) points(o Opts) []point {
	o.normalize()
	var pts []point
	for _, x := range s.axis {
		for _, a := range s.arms {
			cfg := o.paperConfig(s.base)
			for _, change := range []func(*netsim.Config){s.common, x.set, a.set} {
				if change != nil {
					change(&cfg)
				}
			}
			pts = append(pts, point{s.id + " " + x.log + a.suffix, cfg})
		}
	}
	return pts
}

// reduce builds the sweep's tables from the results of points, in order.
func (s sweep) reduce(res []*netsim.Results) []*Table {
	var out []*Table
	for _, spec := range s.tables {
		t := &Table{ID: spec.id, Title: spec.title, XLabel: s.xlabel, Notes: []string{spec.note}}
		for _, c := range spec.cols {
			t.Columns = append(t.Columns, c.header)
		}
		for i, x := range s.axis {
			runs := res[i*len(s.arms) : (i+1)*len(s.arms)]
			vals := make([]float64, len(spec.cols))
			for j, c := range spec.cols {
				vals[j] = c.metric(runs[c.arm])
			}
			t.AddRow(x.row, vals...)
		}
		out = append(out, t)
	}
	return out
}

func (s sweep) run(o Opts) []*Table { return s.reduce(o.runPoints(s.points(o))) }

// axis declares one setting per value; row and log are fmt formats of it.
func axis[T any](row, log string, set func(*netsim.Config, T), vals ...T) []setting {
	out := make([]setting, len(vals))
	for i, v := range vals {
		out[i] = setting{fmt.Sprintf(row, v), fmt.Sprintf(log, v), func(c *netsim.Config) { set(c, v) }}
	}
	return out
}

// dctcpVsDIBS is the paper's usual pair of arms: DIBS off, then on.
var dctcpVsDIBS = []arm{
	{"/dctcp", func(c *netsim.Config) { c.DIBS = false }},
	{"/dibs", func(c *netsim.Config) { c.DIBS = true }},
}

// oneArm runs each setting once, as the setting declares it.
var oneArm = []arm{{}}

// query is the paper's query traffic at the given rate, degree and size.
func query(qps float64, degree int, bytes int64) *workload.QueryConfig {
	return &workload.QueryConfig{QPS: qps, Degree: degree, ResponseBytes: bytes}
}

// Metrics used by more than one column.
func qct99(r *netsim.Results) float64      { return r.QCT99 }
func fct99(r *netsim.Results) float64      { return r.ShortFCT99 }
func bgFCT99(r *netsim.Results) float64    { return r.BGFCT99 }
func jain(r *netsim.Results) float64       { return r.JainIndex }
func totalDrops(r *netsim.Results) float64 { return float64(r.TotalDrops) }
func netDrops(r *netsim.Results) float64   { return float64(r.NetworkDrops()) }
func detours(r *netsim.Results) float64    { return float64(r.Detours) }
func timeouts(r *netsim.Results) float64   { return float64(r.Timeouts) }

// qctFct is the four-series layout of Figures 8-11 over dctcpVsDIBS, plus
// any extra columns.
func qctFct(extra ...column) []column {
	return append([]column{
		{"QCT99-dctcp(ms)", 0, qct99}, {"QCT99-dibs(ms)", 1, qct99},
		{"FCT99-dctcp(ms)", 0, fct99}, {"FCT99-dibs(ms)", 1, fct99},
	}, extra...)
}
