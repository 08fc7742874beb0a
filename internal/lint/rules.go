package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzers returns the full dibslint suite.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		RNGTaint(),
		MapRange(),
		TimeOverflow(),
	}
}

// AllRules returns every rule's documentation, for `dibslint -rules`.
func AllRules() []RuleDoc {
	var docs []RuleDoc
	for _, a := range Analyzers() {
		docs = append(docs, a.Rules...)
	}
	return docs
}

// randConstructors create PRNG sources; every argument of one is a seed
// position for rng-taint.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

// MapRange reports map-range iteration that feeds event scheduling or
// result aggregation in simulation packages: Go randomizes the order per
// run, but on a path no repeated run happens to reach, every test still
// agrees with itself.
func MapRange() *Analyzer {
	return &Analyzer{
		Rules: []RuleDoc{
			{ID: "nondet-maprange", Doc: "map iteration order feeds event scheduling or result aggregation"},
		},
		Check: func(l *Loader, pkg *Package, report func(token.Pos, string, string)) {
			if !l.SimPackage(effectivePath(pkg)) {
				return
			}
			for _, f := range pkg.Files {
				checkMapRanges(pkg, f, report)
			}
		},
	}
}

// clockValueFns are stdlib functions whose results derive from per-process
// state; a seed expression that calls one is flagged by rng-taint.
var clockValueFns = map[[2]string]bool{
	{"time", "Now"}:             true,
	{"time", "Since"}:           true,
	{"time", "Until"}:           true,
	{"os", "Getpid"}:            true,
	{"os", "Getppid"}:           true,
	{"runtime", "NumGoroutine"}: true,
}

// arithOps are the binary operators that make a seed expression ad-hoc
// arithmetic rather than a threaded or derived seed.
var arithOps = map[token.Token]bool{
	token.ADD: true, token.SUB: true, token.MUL: true, token.QUO: true,
	token.REM: true, token.AND: true, token.OR: true, token.XOR: true,
	token.SHL: true, token.SHR: true, token.AND_NOT: true,
}

// RNGTaint checks every seed position syntactically. The positions are an
// argument bound to a module function's parameter named seed (rng.New,
// rng.Derive, rng.Derive2, topology.Jellyfish, ...), every argument of a
// math/rand constructor or rand.Seed, and a write to a module Seed field.
// With conversions stripped, a position fires when it calls a clock or
// process-state function, or when it is non-constant arithmetic; for a Seed
// field only arithmetic over a .Seed read or an rng result counts, so a
// test-table `cfg.Seed = int64(i) + 1` stays legal. A seed laundered
// through a local or a helper is not tracked.
func RNGTaint() *Analyzer {
	return &Analyzer{
		Rules: []RuleDoc{
			{ID: "rng-taint", Doc: "a seed is derived from the wall clock/process state or by ad-hoc arithmetic; derive per-run streams with rng.Derive(seed, name)", InTests: true},
		},
		Check: func(l *Loader, pkg *Package, report func(token.Pos, string, string)) {
			path := effectivePath(pkg)
			if !l.SimPackage(path) || l.RNGPackage(path) {
				return
			}
			info := pkg.Info
			check := func(arg ast.Expr, field bool) {
				e := stripConversions(info, arg)
				be, arith := e.(*ast.BinaryExpr)
				arith = arith && arithOps[be.Op] && info.Types[e].Value == nil
				switch {
				case containsCall(info, e, func(fn *types.Func) bool {
					return clockValueFns[[2]string{fn.Pkg().Path(), fn.Name()}]
				}):
					report(arg.Pos(), "rng-taint",
						"seed derived from wall clock or process state; thread Config.Seed and derive streams with rng.New(seed, name)")
				case arith && (!field || l.readsSeed(info, e)):
					report(arg.Pos(), "rng-taint",
						"ad-hoc seed arithmetic; derive independent per-run streams with rng.Derive(seed, name)")
				}
			}
			for _, f := range pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					switch x := n.(type) {
					case *ast.CallExpr:
						for _, arg := range l.seedArgs(info, x) {
							check(arg, false)
						}
					case *ast.KeyValueExpr:
						if key, ok := x.Key.(*ast.Ident); ok && l.isSeedField(info, key) {
							check(x.Value, true)
						}
					case *ast.AssignStmt:
						if len(x.Lhs) != len(x.Rhs) {
							break
						}
						for i, lhs := range x.Lhs {
							if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok && l.isSeedField(info, sel.Sel) {
								check(x.Rhs[i], true)
							}
						}
					}
					return true
				})
			}
		},
	}
}

// seedArgs returns the arguments of call in seed positions: every argument
// of a math/rand constructor or Seed, and each argument bound to a module
// function's parameter named seed.
func (l *Loader) seedArgs(info *types.Info, call *ast.CallExpr) []ast.Expr {
	fn := staticCallee(info, call)
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	switch p := fn.Pkg().Path(); {
	case p == "math/rand" || p == "math/rand/v2":
		if randConstructors[fn.Name()] || fn.Name() == "Seed" {
			return call.Args
		}
	case l.inModule(fn.Pkg()):
		params := fn.Type().(*types.Signature).Params()
		var args []ast.Expr
		for i, arg := range call.Args {
			if i < params.Len() && params.At(i).Name() == "seed" {
				args = append(args, arg)
			}
		}
		return args
	}
	return nil
}

// isSeedField reports whether id names a field called Seed on a
// module-declared type — the canonical run-seed carrier.
func (l *Loader) isSeedField(info *types.Info, id *ast.Ident) bool {
	v, ok := info.Uses[id].(*types.Var)
	return ok && id.Name == "Seed" && v.IsField() && l.inModule(v.Pkg())
}

// readsSeed reports whether e reads a module Seed field or calls into
// internal/rng.
func (l *Loader) readsSeed(info *types.Info, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && l.isSeedField(info, sel.Sel) {
			found = true
		}
		return !found
	})
	return found || containsCall(info, e, func(fn *types.Func) bool { return l.RNGPackage(fn.Pkg().Path()) })
}

// stripConversions removes parentheses and type conversions around e.
func stripConversions(info *types.Info, e ast.Expr) ast.Expr {
	for {
		e = ast.Unparen(e)
		call, ok := e.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 || !info.Types[call.Fun].IsType() {
			return e
		}
		e = call.Args[0]
	}
}

// containsCall reports whether e calls a function (with a package) that
// match accepts.
func containsCall(info *types.Info, e ast.Expr, match func(*types.Func) bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := staticCallee(info, call); fn != nil && fn.Pkg() != nil && match(fn) {
				found = true
			}
		}
		return !found
	})
	return found
}

// staticCallee resolves the *types.Func a call invokes, for direct calls
// and method calls. Function values and built-ins resolve to nil.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// checkMapRanges flags range-over-map loops whose bodies schedule events or
// append to state outliving the loop: Go randomizes map iteration order, so
// both make event order (and float accumulation order) differ across runs.
func checkMapRanges(pkg *Package, f *ast.File, report func(token.Pos, string, string)) {
	ast.Inspect(f, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pkg.Info.Types[rs.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		ast.Inspect(rs.Body, func(m ast.Node) bool {
			switch stmt := m.(type) {
			case *ast.CallExpr:
				if se, ok := stmt.Fun.(*ast.SelectorExpr); ok {
					if sel := pkg.Info.Selections[se]; sel != nil && isSchedulerMethod(sel, se.Sel.Name) {
						report(stmt.Pos(), "nondet-maprange",
							fmt.Sprintf("%s scheduled inside map iteration; event order becomes map-order dependent", se.Sel.Name))
					}
				}
			case *ast.AssignStmt:
				for i, rhs := range stmt.Rhs {
					call, ok := rhs.(*ast.CallExpr)
					if !ok || !isBuiltinAppend(pkg, call) || i >= len(stmt.Lhs) {
						continue
					}
					if escapesLoop(pkg, stmt.Lhs[i], rs) {
						report(stmt.Pos(), "nondet-maprange",
							"append to outer state inside map iteration; aggregate over a sorted key slice instead")
					}
				}
			}
			return true
		})
		return true
	})
}

// isSchedulerMethod reports whether sel is eventq.Scheduler.At/After.
func isSchedulerMethod(sel *types.Selection, name string) bool {
	if name != "At" && name != "After" {
		return false
	}
	recv := sel.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Name() == "Scheduler" &&
		strings.HasSuffix(named.Obj().Pkg().Path(), "internal/eventq")
}

func isBuiltinAppend(pkg *Package, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	_, isBuiltin := pkg.Info.Uses[id].(*types.Builtin)
	return isBuiltin && id.Name == "append"
}

// escapesLoop reports whether the assignment target outlives the range
// statement: a selector (field of longer-lived state) or an identifier
// declared outside the loop.
func escapesLoop(pkg *Package, lhs ast.Expr, rs *ast.RangeStmt) bool {
	switch e := lhs.(type) {
	case *ast.SelectorExpr:
		return true
	case *ast.Ident:
		obj := pkg.Info.Uses[e]
		if obj == nil {
			obj = pkg.Info.Defs[e]
		}
		return obj != nil && (obj.Pos() < rs.Pos() || obj.Pos() > rs.End())
	}
	return false
}

// TimeOverflow flags Time×Time products: the result is in ns², which
// overflows int64 once both factors reach about 3 s.
func TimeOverflow() *Analyzer {
	return &Analyzer{
		Rules: []RuleDoc{
			{ID: "vtime-overflow", Doc: "product of two non-constant eventq.Time values; ns×ns overflows int64 once both factors reach about 3 s"},
		},
		Check: func(l *Loader, pkg *Package, report func(token.Pos, string, string)) {
			if !l.SimPackage(effectivePath(pkg)) {
				return
			}
			for _, f := range pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					be, ok := n.(*ast.BinaryExpr)
					if !ok || be.Op != token.MUL {
						return true
					}
					xt, xok := pkg.Info.Types[be.X]
					yt, yok := pkg.Info.Types[be.Y]
					if xok && yok && isEventqTime(xt.Type) && isEventqTime(yt.Type) &&
						xt.Value == nil && yt.Value == nil {
						report(be.Pos(), "vtime-overflow",
							"Time × Time product is ns²; rescale one operand to a dimensionless factor first")
					}
					return true
				})
			}
		},
	}
}

// isEventqTime reports whether t is internal/eventq's Time.
func isEventqTime(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Name() == "Time" &&
		strings.HasSuffix(named.Obj().Pkg().Path(), "internal/eventq")
}
