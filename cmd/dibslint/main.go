// Command dibslint runs the repo's determinism and virtual-time lint suite
// over package patterns and exits non-zero on findings:
//
//	go run ./cmd/dibslint ./...
//	go run ./cmd/dibslint -tests ./...
//	go run ./cmd/dibslint -rules
//
// Output is one finding per line, file:line:col: rule-id: message, sorted
// by position. Exit status: 0 clean, 1 findings, 2 usage or load failure,
// including a package that does not type-check (its findings are still
// printed). There is no suppression: a rule exists only because
// scripts/mutants.sh plants a bug that changes a value no test but a
// golden constant sees, so a finding is fixed, not silenced. Test files
// are skipped by default; -tests loads them too (in-package and external
// _test packages) and applies the rules marked [tests] in -rules — seeding
// from the wall clock makes a test flaky by construction.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"dibs/internal/lint"
)

func main() {
	rules := flag.Bool("rules", false, "list rule IDs and exit")
	tests := flag.Bool("tests", false, "also lint _test.go files (test-relevant rules only)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dibslint [-rules] [-tests] [packages]\n\npatterns: directories, or dir/... for recursion (default ./...)\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *rules {
		for _, r := range lint.AllRules() {
			marks := ""
			if r.InTests {
				marks = " [tests]"
			}
			fmt.Printf("%-17s%s %s\n", r.ID, marks, r.Doc)
		}
		return
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

	findings := loader.Run(pkgs, lint.Analyzers())
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(loader.TypeErrors) > 0 {
		fmt.Fprintf(os.Stderr, "dibslint: %d type-check diagnostics (first: %v)\n",
			len(loader.TypeErrors), loader.TypeErrors[0])
		os.Exit(2)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "dibslint: %d finding(s)\n", len(findings))
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
