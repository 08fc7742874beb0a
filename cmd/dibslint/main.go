// Command dibslint runs the repo's determinism/virtual-time/metric lint
// suite over package patterns and exits non-zero on findings:
//
//	go run ./cmd/dibslint ./...
//	go run ./cmd/dibslint -tests -json ./...
//	go run ./cmd/dibslint -rules
//
// Output is one finding per line, file:line:col: rule-id: message, sorted
// by position; -json emits a JSON array (rule, position, message,
// severity) instead. Exit status: 0 clean or warnings only, 1 error-level
// findings, 2 usage or load failure. -disable=rule1,rule2 drops specific
// rules for one invocation; an ID that -rules does not list is a usage
// error, so a typo or a retired rule cannot silently disable nothing.
// -workers=n analyzes packages in parallel (default one worker per CPU);
// findings are identical and identically ordered at any worker count.
//
// Suppress a single finding with a trailing or preceding comment:
//
//	//dibslint:ignore RULE reason
//
// The reason is mandatory; a bare ignore is itself reported. Test files
// are skipped by default; -tests loads them too (in-package and external
// _test packages) and applies the rules marked as test-relevant in
// -rules — seeding from the wall clock or the process-global rand source
// makes a test flaky-by-construction.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"dibs/internal/lint"
	"dibs/internal/runner"
)

func main() {
	rules := flag.Bool("rules", false, "list rule IDs and exit")
	tests := flag.Bool("tests", false, "also lint _test.go files (test-relevant rules only)")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	disable := flag.String("disable", "", "comma-separated rule IDs to skip")
	workers := flag.Int("workers", 0, "packages analyzed in parallel (0 = one per CPU); output is identical at any setting")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dibslint [-rules] [-tests] [-json] [-disable=rule,...] [-workers=n] [packages]\n\npatterns: directories, or dir/... for recursion (default ./...)\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *rules {
		for _, r := range lint.AllRules() {
			marks := r.Severity
			if r.InTests {
				marks += ",tests"
			}
			fmt.Printf("%-20s [%s] %s\n", r.ID, marks, r.Doc)
		}
		return
	}

	known := make(map[string]bool)
	for _, r := range lint.AllRules() {
		known[r.ID] = true
	}
	disabled := make(map[string]bool)
	for _, id := range strings.Split(*disable, ",") {
		if id = strings.TrimSpace(id); id == "" {
			continue
		}
		if !known[id] {
			fatal(fmt.Errorf("-disable: unknown rule %q (see dibslint -rules)", id))
		}
		disabled[id] = true
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := lint.NewLoader(".")
	if err != nil {
		fatal(err)
	}
	dirs, err := expand(patterns)
	if err != nil {
		fatal(err)
	}
	var pkgs []*lint.Package
	for _, dir := range dirs {
		path, err := loader.PathFor(dir)
		if err != nil {
			fatal(err)
		}
		if *tests {
			tp, err := loader.LoadTests(path)
			if err != nil {
				fatal(err)
			}
			pkgs = append(pkgs, tp...)
		} else {
			pkg, err := loader.Load(path)
			if err != nil {
				fatal(err)
			}
			pkgs = append(pkgs, pkg)
		}
	}

	all := loader.RunParallel(pkgs, lint.Analyzers(), runner.DefaultWorkers(*workers))
	findings := all[:0]
	for _, f := range all {
		if !disabled[f.Rule] {
			findings = append(findings, f)
		}
	}
	errors := 0
	for _, f := range findings {
		if f.Severity == lint.SevError {
			errors++
		}
	}
	if *jsonOut {
		if err := lint.WriteJSON(os.Stdout, findings); err != nil {
			fatal(err)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(loader.TypeErrors) > 0 {
		fmt.Fprintf(os.Stderr, "dibslint: %d type-check diagnostics (first: %v)\n",
			len(loader.TypeErrors), loader.TypeErrors[0])
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "dibslint: %d finding(s), %d error(s)\n", len(findings), errors)
	}
	if errors > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dibslint:", err)
	os.Exit(2)
}

// expand resolves patterns (dir or dir/...) to the sorted set of
// directories containing at least one non-test Go file (a package must
// have production sources to be loaded, even with -tests).
func expand(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) error {
		ok, err := hasGoFiles(dir)
		if err != nil || !ok {
			return err
		}
		if abs, err := filepath.Abs(dir); err == nil {
			dir = abs
		}
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
		return nil
	}
	for _, pat := range patterns {
		if root, ok := strings.CutSuffix(pat, "/..."); ok {
			if root == "" {
				root = "."
			}
			err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
					return filepath.SkipDir
				}
				return add(path)
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		ok, err := hasGoFiles(pat)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("no Go files in %s", pat)
		}
		if err := add(pat); err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if !strings.HasSuffix(name, "_test.go") {
			return true, nil
		}
	}
	return false, nil
}
