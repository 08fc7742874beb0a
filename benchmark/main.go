// Command benchmark is the repository's benchmark: five workloads built
// through the public dibs API, measured end to end (host time, memory and a
// simulated statistic per unit of simulated work) and layer by layer
// (simulated counts, unit costs of each internal package's exported
// operations, and a CPU profile bucketed by package). See README.md.
//
// One workload per process:
//
//	go run ./benchmark --workload paper_mix --seed 1 --seconds 10 --trace 0
//
// prints a table of every metric and, as the last line of standard output,
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Without --workload the program runs every workload that way, one child
// process at a time, and writes everything it read to -out.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
)

func main() {
	name := flag.String("workload", "", "workload to run in this process; empty runs all of them, each in a child process")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "time budget of the timed repeats (never fewer than 5 of them)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics from untraced repeats; 1: per-layer metrics from a profiled, traced repeat")
	quick := flag.Bool("quick", false, "smoke run: 3 timed repeats of inputs a quarter as long; never comparable with a full run")
	out := flag.String("out", "", "directory for the JSON report and span trace (default .bench_out when running all workloads, none for one)")
	selfcheck := flag.Bool("selfcheck", false, "run all workloads twice and fail unless the two sets agree")
	flag.Parse()

	// No more running threads than the machine has CPUs, and no more than
	// the two the sharded and parallel workloads are sized for.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	if *name == "" {
		if *out == "" {
			*out = ".bench_out"
		}
		os.Exit(runAll(*seed, *seconds, *quick, *out, *selfcheck))
	}
	w, ok := workloadByName(*name)
	if !ok || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q or trace %d\n", *name, *trace)
		os.Exit(2)
	}
	var rep *report
	if *trace == 0 {
		rep = measureEndToEnd(w, *seed, *seconds, *quick)
	} else {
		var err error
		if rep, err = measureLayers(w, *seed, *seconds, *quick); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	if *out != "" {
		if err := writeReport(*out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	printReport(rep)
	if !rep.Correct {
		os.Exit(1)
	}
}

// printReport writes the human-readable table, then the one-line result.
func printReport(rep *report) {
	fmt.Printf("workload %s seed %d trace %d quick %t | %s gomaxprocs %d nproc %d comparable %t noisy %t\n",
		rep.Workload, rep.Seed, rep.Trace, rep.Quick, rep.GoVersion, rep.GOMAXPROCS, rep.NProc, rep.Comparable, rep.Noisy)
	fmt.Printf("%-32s %-6s %3s %14s %14s %14s\n", "metric", "unit", "n", "median", "q1", "q3")
	for _, set := range []map[string]reading{rep.Metrics, rep.Extra} {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			r := set[n]
			fmt.Printf("%-32s %-6s %3d %14.6g %14.6g %14.6g\n", n, r.Unit, r.N, r.Median, r.Q1, r.Q3)
		}
	}
	for _, p := range rep.Problems {
		fmt.Println("FAILED CHECK:", p)
	}
	fmt.Printf("operations %d failed %d failed_frac %g | spans %d\n",
		rep.Attempted, rep.Failed, float64(rep.Failed)/float64(max(rep.Attempted, 1)), len(rep.Spans))

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, max(rep.Attempted, 1), rep.Failed, map[string]value{}}
	for n, r := range rep.Metrics {
		line.Metrics[n] = value{finite(r.Median), r.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

func reportPath(dir, workload string, trace int) string {
	return filepath.Join(dir, workload+".trace"+strconv.Itoa(trace)+".json")
}

// writeReport writes the report, and the span trace of a traced run, as
// JSON files under dir.
func writeReport(dir string, rep *report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeJSON(reportPath(dir, rep.Workload, rep.Trace), rep); err != nil {
		return err
	}
	if rep.Trace == 1 {
		return writeJSON(filepath.Join(dir, rep.Workload+".spans.json"), rep.Spans)
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runSet runs every workload once untraced and once traced, each in its own
// child process so that peak RSS is per workload and only one process is
// ever busy, and returns the reports by file name.
func runSet(seed int64, seconds int, quick bool, dir string) (map[string]*report, bool) {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return nil, false
	}
	reports := map[string]*report{}
	ok := true
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace),
				"--quick="+strconv.FormatBool(quick), "--out", dir)
			var table bytes.Buffer
			cmd.Stdout, cmd.Stderr = &table, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s trace %d: %v\n", w.name, trace, err)
				ok = false
			}
			// The child's last line is the machine-readable result, which
			// this mode reads from the report file instead.
			lines := bytes.SplitAfter(bytes.TrimRight(table.Bytes(), "\n"), []byte("\n"))
			os.Stdout.Write(bytes.Join(lines[:len(lines)-1], nil))
			path := reportPath(dir, w.name, trace)
			b, err := os.ReadFile(path)
			rep := new(report)
			if err == nil {
				err = json.Unmarshal(b, rep)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", path, err)
				ok = false
				continue
			}
			reports[filepath.Base(path)] = rep
			fmt.Println()
		}
	}
	return reports, ok
}

// runAll is the no---workload mode; it returns the exit code.
func runAll(seed int64, seconds int, quick bool, dir string, selfcheck bool) int {
	if !selfcheck {
		reports, ok := runSet(seed, seconds, quick, dir)
		if err := writeJSON(filepath.Join(dir, "benchmark.json"), reports); err != nil || !ok {
			fmt.Fprintln(os.Stderr, "benchmark: FAILED", err)
			return 1
		}
		fmt.Println("benchmark: all workloads correct; reports in", dir)
		return 0
	}
	a, okA := runSet(seed, seconds, quick, filepath.Join(dir, "set1"))
	b, okB := runSet(seed, seconds, quick, filepath.Join(dir, "set2"))
	diffs := compareSets(a, b)
	for _, d := range diffs {
		fmt.Println("selfcheck:", d)
	}
	if !okA || !okB || len(diffs) > 0 {
		fmt.Println("selfcheck: FAILED")
		return 1
	}
	fmt.Println("selfcheck: two sets of runs agree; reports in", dir)
	return 0
}

// compareSets holds two sets of runs of one build to each other: every
// end-to-end median within the metric's own bound, every exact count equal.
func compareSets(a, b map[string]*report) []string {
	var diffs []string
	defs := map[string]metricDef{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer()...) {
		defs[d.name] = d
	}
	files := make([]string, 0, len(a))
	for f := range a {
		files = append(files, f)
	}
	sort.Strings(files)
	for _, f := range files {
		ra, rb := a[f], b[f]
		if rb == nil {
			diffs = append(diffs, f+": missing from the second set")
			continue
		}
		names := make([]string, 0, len(ra.Metrics))
		for n := range ra.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			d, ma, mb := defs[n], ra.Metrics[n].Median, rb.Metrics[n].Median
			switch {
			case d.exact && math.Float64bits(ma) != math.Float64bits(mb):
				diffs = append(diffs, fmt.Sprintf("%s %s: count %v != %v", f, n, ma, mb))
			case d.bound > 0 && math.Abs(mb-ma) > d.bound*math.Abs(ma):
				diffs = append(diffs, fmt.Sprintf("%s %s: medians %.6g and %.6g differ by more than the %.0f%% bound", f, n, ma, mb, d.bound*100))
			}
		}
	}
	return diffs
}
