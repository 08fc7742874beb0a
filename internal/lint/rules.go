package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// Analyzers returns the full dibslint suite.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		Nondeterminism(),
		VirtualTime(),
		FloatEq(),
		DroppedResults(),
		RNGTaint(),
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

// randConstructors create PRNG sources; outside internal/rng they bypass
// the single-seed derivation contract.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

// Nondeterminism reports the run-to-run hazards that a run-twice check
// cannot see in simulation packages: a PRNG constructed outside
// internal/rng (a fixed or private seed repeats itself, so two runs still
// agree), and map-range iteration that feeds event scheduling or result
// aggregation (on a path where the order happens not to move the output
// of any repeated run).
func Nondeterminism() *Analyzer {
	return &Analyzer{
		Rules: []RuleDoc{
			{ID: "nondet-randnew", Doc: "PRNG constructed outside internal/rng; derive every stream from Config.Seed via rng.New"},
			{ID: "nondet-maprange", Doc: "map iteration order feeds event scheduling or result aggregation"},
		},
		Check: func(l *Loader, pkg *Package, report func(token.Pos, string, string)) {
			path := effectivePath(pkg)
			if !l.SimPackage(path) {
				return
			}
			for ident, obj := range pkg.Info.Uses {
				fn, ok := obj.(*types.Func)
				if !ok || fn.Pkg() == nil || !randConstructors[fn.Name()] || l.RNGPackage(path) {
					continue
				}
				if p := fn.Pkg().Path(); p == "math/rand" || p == "math/rand/v2" {
					report(ident.Pos(), "nondet-randnew",
						fmt.Sprintf("rand.%s outside internal/rng; derive streams with rng.New(seed, name)", fn.Name()))
				}
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

// VirtualTime enforces eventq.Time hygiene: no time.Duration leaking into
// simulation state, no raw-nanosecond magic literals, and no Time×Time
// products (ns² overflows int64 within milliseconds).
func VirtualTime() *Analyzer {
	return &Analyzer{
		Rules: []RuleDoc{
			{ID: "vtime-duration", Doc: "time.Duration used in simulation code where eventq.Time belongs; convert at the boundary with eventq.Duration"},
			{ID: "vtime-rawns", Doc: "raw integer literal used as eventq.Time; spell durations with eventq unit constants (e.g. 5*eventq.Microsecond)"},
			{ID: "vtime-overflow", Doc: "product of two non-constant eventq.Time values; ns×ns overflows int64 once both factors reach about 3 s"},
		},
		Check: func(l *Loader, pkg *Package, report func(token.Pos, string, string)) {
			path := effectivePath(pkg)
			if !l.SimPackage(path) {
				return
			}
			eventqPkg := path == l.ModulePath+"/internal/eventq"
			// eventq.Duration and the facade's dibs.Duration are the two
			// wall-clock boundaries: they take a time.Duration by design.
			if !eventqPkg && path != l.ModulePath {
				// Declarations of wall-clock duration type in sim state.
				for ident, obj := range pkg.Info.Defs {
					v, ok := obj.(*types.Var)
					if !ok || !isNamedType(v.Type(), "time", "Duration") {
						continue
					}
					report(ident.Pos(), "vtime-duration",
						fmt.Sprintf("%s has type time.Duration; simulator quantities use eventq.Time", ident.Name))
				}
			}
			for _, f := range pkg.Files {
				// Conversions eventq.Time(d) from a time.Duration.
				ast.Inspect(f, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok || len(call.Args) != 1 {
						return true
					}
					ft, ok := pkg.Info.Types[call.Fun]
					if !ok || !ft.IsType() || !isEventqTime(ft.Type) {
						return true
					}
					if at, ok := pkg.Info.Types[call.Args[0]]; ok && isNamedType(at.Type, "time", "Duration") {
						report(call.Pos(), "vtime-duration",
							"direct cast of time.Duration to eventq.Time; use eventq.Duration for the boundary conversion")
					}
					return true
				})
				if !eventqPkg {
					walkWithParent(f, func(n, parent ast.Node) {
						checkRawNs(pkg, n, parent, report)
					})
				}
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

// rawNsThreshold is the smallest integer literal treated as a raw-nanosecond
// magic number when typed as eventq.Time. Small counts (tie-break epsilons,
// 1-ns floors) stay legal.
const rawNsThreshold = 1000

// checkRawNs flags bare INT literals typed eventq.Time at or above the
// threshold, except as factors of a multiplication/division (the idiomatic
// `1500 * eventq.Nanosecond` spelling) or in comparisons.
func checkRawNs(pkg *Package, n, parent ast.Node, report func(token.Pos, string, string)) {
	lit, ok := n.(*ast.BasicLit)
	if !ok || lit.Kind != token.INT {
		return
	}
	tv, ok := pkg.Info.Types[lit]
	if !ok || !isEventqTime(tv.Type) || tv.Value == nil {
		return
	}
	v, ok := constant.Int64Val(constant.ToInt(tv.Value))
	if !ok || v < rawNsThreshold {
		return
	}
	if be, ok := parent.(*ast.BinaryExpr); ok && be.Op != token.ADD && be.Op != token.SUB {
		return
	}
	report(lit.Pos(), "vtime-rawns",
		fmt.Sprintf("raw nanosecond literal %s as eventq.Time; write it with unit constants", lit.Value))
}

// FloatEq flags ==/!= between floating-point values. Percentiles, FCTs and
// goodputs are float64; exact equality on them silently depends on
// accumulation order. Comparisons against an exact literal zero are exempt
// (division guards test "never accumulated", which is exact).
func FloatEq() *Analyzer {
	return &Analyzer{
		Rules: []RuleDoc{
			{ID: "float-eq", Doc: "==/!= on floating-point values; compare with a tolerance or restructure"},
		},
		Check: func(l *Loader, pkg *Package, report func(token.Pos, string, string)) {
			for _, f := range pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					be, ok := n.(*ast.BinaryExpr)
					if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
						return true
					}
					xt, xok := pkg.Info.Types[be.X]
					yt, yok := pkg.Info.Types[be.Y]
					if !xok || !yok || (!isFloat(xt.Type) && !isFloat(yt.Type)) {
						return true
					}
					if isExactZero(xt) || isExactZero(yt) {
						return true
					}
					report(be.Pos(), "float-eq",
						fmt.Sprintf("floating-point %s comparison; use a tolerance", be.Op))
					return true
				})
			}
		},
	}
}

// DroppedResults flags error or queue.Result returns of module calls
// discarded as bare statements inside simulation packages. A refused
// Enqueue or a dropped Validate error changes nothing a repeated run can
// see: both runs drop it alike.
func DroppedResults() *Analyzer {
	return &Analyzer{
		Rules: []RuleDoc{
			{ID: "sched-droppederr", Doc: "error or queue.Result of a simulator API call silently dropped"},
		},
		Check: func(l *Loader, pkg *Package, report func(token.Pos, string, string)) {
			if !l.SimPackage(effectivePath(pkg)) {
				return
			}
			for _, f := range pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					if e, ok := n.(*ast.ExprStmt); ok {
						checkDroppedErr(l, pkg, e, report)
					}
					return true
				})
			}
		},
	}
}

func checkDroppedErr(l *Loader, pkg *Package, stmt *ast.ExprStmt, report func(token.Pos, string, string)) {
	call, ok := stmt.X.(*ast.CallExpr)
	if !ok {
		return
	}
	fn := staticCallee(pkg.Info, call)
	if fn == nil || !l.inModule(fn.Pkg()) {
		return
	}
	res := fn.Type().(*types.Signature).Results()
	for i := 0; i < res.Len(); i++ {
		switch checkedResultKind(res.At(i).Type()) {
		case "error":
			report(stmt.Pos(), "sched-droppederr",
				fmt.Sprintf("%s returns an error that is dropped; handle it or assign to _ explicitly", fn.Name()))
			return
		case "queue.Result":
			report(stmt.Pos(), "sched-droppederr",
				"queue.Result discarded; Accepted must be checked (or assign to _ explicitly)")
			return
		}
	}
}

// checkedResultKind classifies result types that must be consumed: the
// error interface and internal/queue's Result.
func checkedResultKind(t types.Type) string {
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Name() == "error" && obj.Pkg() == nil {
		return "error"
	}
	if obj.Name() == "Result" && obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), "internal/queue") {
		return "queue.Result"
	}
	return ""
}

// --- shared type helpers ---

func isNamedType(t types.Type, pkgPath, name string) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == pkgPath && named.Obj().Name() == name
}

func isEventqTime(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Name() == "Time" &&
		strings.HasSuffix(named.Obj().Pkg().Path(), "internal/eventq")
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func isExactZero(tv types.TypeAndValue) bool {
	if tv.Value == nil {
		return false
	}
	return constant.Compare(tv.Value, token.EQL, constant.MakeInt64(0))
}

// walkWithParent visits every node with its immediate parent.
func walkWithParent(root ast.Node, visit func(n, parent ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		var parent ast.Node
		if len(stack) > 0 {
			parent = stack[len(stack)-1]
		}
		visit(n, parent)
		stack = append(stack, n)
		return true
	})
}
