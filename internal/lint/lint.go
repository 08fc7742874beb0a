// Package lint implements dibslint, a static-analysis suite purpose-built
// for this simulator. DIBS results are only meaningful if a run is a pure
// function of Config.Seed, and most ways to break that are caught by go
// test: a global rand, a wall-clock read or a goroutine in simulation code
// makes two seeded runs diverge or the race detector fire, a stream that
// ignores the seed fails TestEveryStreamFollowsSeed, a packet literal
// panics when it is freed, and scheduling into the past panics in the
// scheduler. dibslint keeps only the rules whose bug changes a value that
// no test but a golden constant sees:
//
//   - rng-taint: a seed built from the wall clock or by ad-hoc arithmetic
//     (every stream must derive from Config.Seed via internal/rng),
//   - nondet-maprange: map-range iteration feeding event scheduling or
//     result aggregation where no run-twice check happens to reach,
//   - vtime-overflow: a Time×Time product in virtual-time code.
//
// Every rule is a syntactic check over one type-checked package; there is
// no control-flow or cross-function analysis. The engine is built
// exclusively on the standard library (go/parser, go/ast, go/types with the
// source importer), honoring the repo's stdlib-only rule. See rules.go for
// the analyzers and DESIGN.md ("Determinism & lint rules") for the scoring
// rule, the rule catalogue and the mutant row that scores each rule.
package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
)

// Finding is one rule violation, reported as file:line:col rule-id message.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg)
}

// Package is one loaded, type-checked package.
type Package struct {
	Path  string // import path, e.g. dibs/internal/netsim
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

// RuleDoc documents one rule ID for `dibslint -rules`.
type RuleDoc struct {
	ID  string
	Doc string
	// InTests marks rules that also apply inside _test.go files when the
	// loader runs with test coverage (-tests). Most rules stay off in
	// tests, where ad-hoc literal-seeded PRNGs are legitimate, but seeding
	// from the wall clock (rng-taint) makes a test flaky by construction.
	InTests bool
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
	return l.check(path, sources)
}

// LoadSynthetic type-checks an in-memory package (used by analyzer tests to
// lint fixture sources that do not exist on disk). files maps file name to
// source text; the import path controls which scoped rules apply.
func (l *Loader) LoadSynthetic(path string, files map[string]string) (*Package, error) {
	return l.check(path, files)
}

// check parses and type-checks one package and caches it under its import
// path. sources maps filename to source text; an empty text means "read
// the file from disk".
func (l *Loader) check(path string, sources map[string]string) (*Package, error) {
	l.loading[path] = true
	defer delete(l.loading, path)
	pkg, err := l.checkWith(path, sources, l, "")
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
func (l *Loader) checkWith(typePath string, sources map[string]string, imp types.Importer, testOf string) (*Package, error) {
	names := make([]string, 0, len(sources))
	for name := range sources {
		names = append(names, name)
	}
	slices.Sort(names)

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
	return &Package{Path: typePath, Files: files, Types: tpkg, Info: info, TestOf: testOf}, nil
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
		aug, err = l.checkWith(path, sources, l, path)
		if err != nil {
			return nil, err
		}
	}
	pkgs := []*Package{aug}
	if len(extPkg) > 0 {
		imp := &testImporter{l: l, path: path, aug: aug.Types}
		ext, err := l.checkWith(path+"_test", extPkg, imp, path)
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

// Run executes all analyzers over the given packages and returns findings
// sorted by position. Findings inside _test.go files are kept only for
// rules marked InTests.
func (l *Loader) Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	inTests := make(map[string]bool)
	for _, a := range analyzers {
		for _, d := range a.Rules {
			inTests[d.ID] = d.InTests
		}
	}
	var findings []Finding
	report := func(pos token.Pos, rule, msg string) {
		f := Finding{Pos: l.Fset.Position(pos), Rule: rule, Msg: msg}
		if inTests[rule] || !strings.HasSuffix(f.Pos.Filename, "_test.go") {
			findings = append(findings, f)
		}
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			a.Check(l, pkg, report)
		}
	}
	slices.SortFunc(findings, func(a, b Finding) int {
		return cmp.Or(
			cmp.Compare(a.Pos.Filename, b.Pos.Filename),
			cmp.Compare(a.Pos.Line, b.Pos.Line),
			cmp.Compare(a.Pos.Column, b.Pos.Column),
			cmp.Compare(a.Rule, b.Rule),
			cmp.Compare(a.Msg, b.Msg),
		)
	})
	return findings
}
