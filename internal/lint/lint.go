// Package lint implements dibslint, a static-analysis suite purpose-built
// for this simulator. DIBS results are only meaningful if a run is exactly
// reproducible — the paper's figures (incast 99th-percentile QCT, drop
// counts, detour loops) come from seeded simulations — so the properties
// that keep runs deterministic are enforced by machine, not convention:
//
//   - no global math/rand state or ad-hoc PRNG construction (every stream
//     must derive from Config.Seed via internal/rng), and no seed built
//     from the wall clock or by ad-hoc arithmetic,
//   - no wall-clock reads, goroutines or sync primitives inside simulation
//     packages (virtual time only, one thread per run or shard),
//   - no map-range iteration feeding event scheduling or result aggregation,
//   - no raw-nanosecond literals or time.Duration leaking into eventq.Time,
//   - no ==/!= on float64 metrics, no dropped error or queue.Result
//     returns, no scheduling into the past, and no packet literals that
//     bypass the pool.
//
// Every rule is a syntactic check over one type-checked package; there is
// no control-flow or cross-function analysis. The engine is built
// exclusively on the standard library (go/parser, go/ast, go/types with the
// source importer), honoring the repo's stdlib-only rule. See rules.go for
// the analyzers and DESIGN.md ("Determinism & lint rules") for the rule
// catalogue.
package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Finding is one rule violation, reported as file:line:col rule-id message.
type Finding struct {
	Pos      token.Position
	Rule     string
	Msg      string
	Severity string // SevError or SevWarn, stamped from the rule's doc
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg)
}

// Package is one loaded, type-checked package.
type Package struct {
	Path  string // import path, e.g. dibs/internal/netsim
	Dir   string // absolute directory ("" for synthetic packages)
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TestOf is the import path of the package under test when this
	// package is a test variant (the in-package files augmented with
	// _test.go files, or the external foo_test package); "" otherwise.
	// Perimeter decisions (SimPackage etc.) use it via effectivePath.
	TestOf string
}

// Analyzer inspects one package and reports findings.
type Analyzer struct {
	// Rules lists the rule IDs this analyzer can emit, for -rules.
	Rules []RuleDoc
	// Check runs the analyzer. report attaches a finding at pos.
	Check func(l *Loader, pkg *Package, report func(pos token.Pos, rule, msg string))
}

// Severity levels for findings. Errors fail the build (exit 1); warnings
// are reported but do not gate.
const (
	SevError = "error"
	SevWarn  = "warn"
)

// RuleDoc documents one rule ID for `dibslint -rules`.
type RuleDoc struct {
	ID       string
	Doc      string
	Severity string
	// InTests marks rules that also apply inside _test.go files when the
	// loader runs with test coverage (-tests). Most determinism rules stay
	// off in tests — ad-hoc literal-seeded PRNGs and wall-clock timing are
	// legitimate there — but seeding from the wall clock (rng-taint) or
	// the process-global source (nondet-globalrand) makes a test
	// flaky-by-construction.
	InTests bool
}

// BadIgnoreRule documents the loader-emitted lint-badignore rule, which
// has no analyzer of its own.
var BadIgnoreRule = RuleDoc{
	ID:       "lint-badignore",
	Doc:      "a //dibslint: directive is malformed or lacks a reason",
	Severity: SevError,
	InTests:  true,
}

// StaleIgnoreRule documents the loader-emitted lint-staleignore rule: a
// well-formed //dibslint:ignore directive that no longer suppresses any
// finding. Dead directives hide future regressions of the named rule on
// that line, so they must be deleted when the underlying code is fixed.
var StaleIgnoreRule = RuleDoc{
	ID:       "lint-staleignore",
	Doc:      "a //dibslint:ignore directive suppresses nothing and must be deleted",
	Severity: SevWarn,
	InTests:  true,
}

// Loader parses and type-checks packages of the enclosing module using only
// the standard library: module-local imports are resolved recursively from
// source, standard-library imports through go/importer's source importer.
type Loader struct {
	Fset       *token.FileSet
	ModuleRoot string // absolute path of the directory holding go.mod
	ModulePath string // module path from go.mod (e.g. "dibs")

	std  types.Importer
	pkgs map[string]*Package
	// loading guards against import cycles (invalid Go, but fail loudly).
	loading map[string]bool
	// TypeErrors collects non-fatal type-check diagnostics; packages are
	// still analyzed best-effort.
	TypeErrors []error
}

// NewLoader locates the module root by walking up from dir to the nearest
// go.mod and returns a loader for it.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		root = parent
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModuleRoot: root,
		ModulePath: modPath,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}, nil
}

var moduleRe = regexp.MustCompile(`^module\s+(\S+)`)

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if m := moduleRe.FindStringSubmatch(strings.TrimSpace(line)); m != nil {
			return m[1], nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// Import implements types.Importer, routing module-local paths to the
// source loader and everything else to the stdlib source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// dirFor maps a module import path to its directory.
func (l *Loader) dirFor(path string) string {
	if path == l.ModulePath {
		return l.ModuleRoot
	}
	rel := strings.TrimPrefix(path, l.ModulePath+"/")
	return filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))
}

// PathFor maps a directory inside the module to its import path.
func (l *Loader) PathFor(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.ModuleRoot, abs)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", dir, l.ModuleRoot)
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

// Load parses and type-checks the package at the given module import path.
// Test files (_test.go) are excluded: the determinism rules deliberately do
// not apply to tests, which may use wall clocks and ad-hoc randomness.
func (l *Loader) Load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	dir := l.dirFor(path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", path, err)
	}
	sources := make(map[string]string)
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		sources[filepath.Join(dir, name)] = ""
	}
	if len(sources) == 0 {
		return nil, fmt.Errorf("lint: no Go source in %s", dir)
	}
	return l.check(path, dir, sources)
}

// LoadSynthetic type-checks an in-memory package (used by analyzer tests to
// lint fixture sources that do not exist on disk). files maps file name to
// source text; the import path controls which scoped rules apply.
func (l *Loader) LoadSynthetic(path string, files map[string]string) (*Package, error) {
	return l.check(path, "", files)
}

// check parses and type-checks one package and caches it under its import
// path. sources maps filename to source text; an empty text means "read
// the file from disk".
func (l *Loader) check(path, dir string, sources map[string]string) (*Package, error) {
	l.loading[path] = true
	defer delete(l.loading, path)
	pkg, err := l.checkWith(path, dir, sources, l, "")
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// checkWith parses and type-checks one package without touching the
// package cache: typePath names the types.Package, imp resolves imports
// (test variants substitute an importer that maps the package under test
// to its augmented build), testOf tags test variants.
func (l *Loader) checkWith(typePath, dir string, sources map[string]string, imp types.Importer, testOf string) (*Package, error) {
	names := make([]string, 0, len(sources))
	for name := range sources {
		names = append(names, name)
	}
	sort.Strings(names)

	var files []*ast.File
	for _, name := range names {
		var src any
		if text := sources[name]; text != "" {
			src = text
		}
		f, err := parser.ParseFile(l.Fset, name, src, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { l.TypeErrors = append(l.TypeErrors, err) },
	}
	tpkg, err := conf.Check(typePath, l.Fset, files, info)
	if err != nil && tpkg == nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", typePath, err)
	}
	return &Package{Path: typePath, Dir: dir, Files: files, Types: tpkg, Info: info, TestOf: testOf}, nil
}

// testImporter resolves the package under test to its augmented build (the
// one including in-package _test.go files), so external foo_test packages
// see export_test.go hooks; everything else goes through the loader.
type testImporter struct {
	l    *Loader
	path string
	aug  *types.Package
}

func (ti *testImporter) Import(path string) (*types.Package, error) {
	if path == ti.path {
		return ti.aug, nil
	}
	return ti.l.Import(path)
}

// LoadTests loads the test builds of the package at the given import path:
// the augmented in-package variant (production files plus same-package
// _test.go files) and, when present, the external foo_test package. The
// production package itself is loaded (and cached) as a side effect; the
// returned packages are not cached and carry TestOf. Packages with no test
// files return the production package alone, so callers can lint the
// result list uniformly.
func (l *Loader) LoadTests(path string) ([]*Package, error) {
	base, err := l.Load(path)
	if err != nil {
		return nil, err
	}
	dir := l.dirFor(path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", path, err)
	}
	inPkg := make(map[string]string)  // same-package test files
	extPkg := make(map[string]string) // external foo_test files
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, "_test.go") {
			continue
		}
		full := filepath.Join(dir, name)
		pkgName, err := packageClause(full)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		if strings.HasSuffix(pkgName, "_test") {
			extPkg[full] = ""
		} else {
			inPkg[full] = ""
		}
	}
	if len(inPkg) == 0 && len(extPkg) == 0 {
		return []*Package{base}, nil
	}

	aug := base
	if len(inPkg) > 0 {
		sources := make(map[string]string, len(inPkg))
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			sources[filepath.Join(dir, name)] = ""
		}
		for name := range inPkg {
			sources[name] = ""
		}
		aug, err = l.checkWith(path, dir, sources, l, path)
		if err != nil {
			return nil, err
		}
	}
	pkgs := []*Package{aug}
	if len(extPkg) > 0 {
		imp := &testImporter{l: l, path: path, aug: aug.Types}
		ext, err := l.checkWith(path+"_test", dir, extPkg, imp, path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, ext)
	}
	return pkgs, nil
}

// packageClause reads just the package name of a Go file.
func packageClause(filename string) (string, error) {
	f, err := parser.ParseFile(token.NewFileSet(), filename, nil, parser.PackageClauseOnly)
	if err != nil {
		return "", err
	}
	return f.Name.Name, nil
}

// SimPackage reports whether path is a simulation package: the module root
// package and everything under internal/, except the lint tooling itself.
// cmd/ binaries may legitimately read the wall clock (to print elapsed real
// time) and are outside the determinism perimeter.
func (l *Loader) SimPackage(path string) bool {
	if path == l.ModulePath {
		return true
	}
	internal := l.ModulePath + "/internal/"
	if !strings.HasPrefix(path, internal) {
		return false
	}
	return path != internal+"lint"
}

// RNGPackage reports whether path is the sanctioned PRNG-derivation
// package, the only simulation code allowed to construct rand sources.
func (l *Loader) RNGPackage(path string) bool {
	return path == l.ModulePath+"/internal/rng"
}

// inModule reports whether p is declared inside this module.
func (l *Loader) inModule(p *types.Package) bool {
	return p != nil && (p.Path() == l.ModulePath || strings.HasPrefix(p.Path(), l.ModulePath+"/"))
}

// effectivePath is the import path used for perimeter decisions: external
// test packages ("foo_test") are judged by the package they test.
func effectivePath(pkg *Package) string {
	if pkg.TestOf != "" {
		return pkg.TestOf
	}
	return pkg.Path
}

// ignoreRe matches suppression comments: //dibslint:ignore RULE reason...
// A reason is mandatory; an ignore without one is itself reported.
var ignoreRe = regexp.MustCompile(`^//dibslint:ignore\s+(\S+)\s*(.*)$`)

// directive is one well-formed //dibslint:ignore comment, tracked so
// lint-staleignore can report the ones that no longer suppress anything.
type directive struct {
	pos  token.Pos
	rule string
	used bool
}

// suppressions scans //dibslint: comments, returning the suppression index
// (file -> line -> rule -> directive; a directive covers its own line and
// the line after it, so it can trail the offending statement or sit above
// it) plus the ordered directive list. Malformed directives — including a
// reason-less ignore — are reported as lint-badignore.
func suppressions(fset *token.FileSet, files []*ast.File, report func(pos token.Pos, rule, msg string)) (map[string]map[int]map[string]*directive, []*directive) {
	sup := make(map[string]map[int]map[string]*directive)
	var dirs []*directive
	add := func(file string, line int, d *directive) {
		if sup[file] == nil {
			sup[file] = make(map[int]map[string]*directive)
		}
		if sup[file][line] == nil {
			sup[file][line] = make(map[string]*directive)
		}
		sup[file][line][d.rule] = d
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					if strings.HasPrefix(c.Text, "//dibslint:") {
						report(c.Pos(), "lint-badignore",
							"malformed directive; use //dibslint:ignore RULE reason")
					}
					continue
				}
				if strings.TrimSpace(m[2]) == "" {
					report(c.Pos(), "lint-badignore",
						fmt.Sprintf("ignore of %s needs a reason: //dibslint:ignore %s <why>", m[1], m[1]))
					continue
				}
				d := &directive{pos: c.Pos(), rule: m[1]}
				dirs = append(dirs, d)
				pos := fset.Position(c.Pos())
				add(pos.Filename, pos.Line, d)
				add(pos.Filename, pos.Line+1, d)
			}
		}
	}
	return sup, dirs
}

// runPkg runs all analyzers over one package and applies suppressions, the
// test-file filter, severity stamping, and stale-directive detection. The
// per-package slice is unsorted; Run merges and sorts.
func (l *Loader) runPkg(pkg *Package, analyzers []*Analyzer, docs map[string]RuleDoc) []Finding {
	var raw []Finding
	report := func(pos token.Pos, rule, msg string) {
		raw = append(raw, Finding{Pos: l.Fset.Position(pos), Rule: rule, Msg: msg})
	}
	sup, dirs := suppressions(l.Fset, pkg.Files, report)
	for _, a := range analyzers {
		a.Check(l, pkg, report)
	}
	var findings []Finding
	for _, f := range raw {
		if rules, ok := sup[f.Pos.Filename][f.Pos.Line]; ok && f.Rule != "lint-badignore" {
			if d := rules[f.Rule]; d != nil {
				d.used = true
				continue
			}
		}
		doc, known := docs[f.Rule]
		if strings.HasSuffix(f.Pos.Filename, "_test.go") && !doc.InTests {
			continue
		}
		f.Severity = SevError
		if known && doc.Severity != "" {
			f.Severity = doc.Severity
		}
		findings = append(findings, f)
	}
	for _, d := range dirs {
		if d.used {
			continue
		}
		findings = append(findings, Finding{
			Pos:      l.Fset.Position(d.pos),
			Rule:     StaleIgnoreRule.ID,
			Msg:      fmt.Sprintf("//dibslint:ignore %s suppresses nothing; delete the directive", d.rule),
			Severity: StaleIgnoreRule.Severity,
		})
	}
	return findings
}

// Run executes all analyzers over the given packages and returns findings
// sorted by position, with //dibslint:ignore suppressions applied.
// Findings inside _test.go files are kept only for rules marked InTests;
// severities are stamped from the rule docs.
func (l *Loader) Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	docs := map[string]RuleDoc{BadIgnoreRule.ID: BadIgnoreRule, StaleIgnoreRule.ID: StaleIgnoreRule}
	for _, a := range analyzers {
		for _, d := range a.Rules {
			docs[d.ID] = d
		}
	}
	var findings []Finding
	for _, pkg := range pkgs {
		findings = append(findings, l.runPkg(pkg, analyzers, docs)...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
	return findings
}
