// Command figures regenerates the tables and figures of the DIBS paper's
// evaluation (§5) and prints their numeric series as aligned text.
//
// Usage:
//
//	figures -list                 # enumerate experiments
//	figures -fig fig08            # run one experiment
//	figures -all                  # run everything (~4 min at -scale 1 on 2 cores)
//	figures -all -scale 0.2       # faster, noisier
//	figures -fig fig06 -seed 7 -v # change seed, log per-run summaries
//
// Experiment IDs follow the paper's figure numbers (fig01..fig16) plus the
// in-text experiments — dba (§5.5.2), oversub (§5.5.4), fair (§5.6) — and
// the ablations beyond the paper's own plots: policies, topos, dupack (§7),
// pfc and spray (§6), cioq and minrto (§4), delack (methodology).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dibs/internal/experiments"
	"dibs/internal/prof"
)

func main() { os.Exit(run()) }

// run is the command; it returns the exit status so that deferred calls —
// the profile writers — run on every path.
func run() int {
	var (
		list    = flag.Bool("list", false, "list experiments and exit")
		fig     = flag.String("fig", "", "comma-separated experiment IDs to run (e.g. fig08,fig09)")
		all     = flag.Bool("all", false, "run every experiment")
		seed    = flag.Int64("seed", 1, "base RNG seed")
		scale   = flag.Float64("scale", 1.0, "duration scale factor (smaller = faster, noisier)")
		verbose = flag.Bool("v", false, "log each simulation run")
		format  = flag.String("format", "text", "output format: text|json|csv")
		workers = flag.Int("workers", 0, "parallel sweep runs (0 = GOMAXPROCS, 1 = serial); output is identical for any value")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return 0
	}

	// Reject bad input before anything runs.
	var exps []experiments.Experiment
	switch {
	case *all:
		exps = experiments.All()
	case *fig != "":
		for _, id := range strings.Split(*fig, ",") {
			id = strings.TrimSpace(id)
			e, ok := experiments.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
				return 1
			}
			exps = append(exps, e)
		}
	default:
		flag.Usage()
		return 2
	}
	switch *format {
	case "text", "json", "csv":
	default:
		fmt.Fprintf(os.Stderr, "unknown format %q\n", *format)
		return 2
	}

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer stopProf()

	opts := experiments.Opts{Seed: *seed, Scale: *scale, Workers: *workers}
	if *verbose {
		opts.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	for _, e := range exps {
		start := time.Now()
		if *format == "text" {
			fmt.Printf("# %s — %s (seed %d, scale %g)\n\n", e.ID, e.Title, *seed, *scale)
		}
		for _, table := range e.Run(opts) {
			var err error
			switch *format {
			case "text":
				table.Render(os.Stdout)
			case "json":
				err = table.WriteJSON(os.Stdout)
			case "csv":
				fmt.Printf("# %s\n", table.ID)
				err = table.WriteCSV(os.Stdout)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "writing %s: %v\n", table.ID, err)
				return 1
			}
		}
		fmt.Fprintf(os.Stderr, "[%s done in %.1fs]\n", e.ID, time.Since(start).Seconds())
	}
	return 0
}
