package lint

// facts.go is the cross-package fact store. When a package is loaded and
// type-checked, a summary is computed for every function declared in it:
//
//   - ReadsClock / ConsumesRNG / MutatesState: the function (transitively,
//     through module-local calls) reads the wall clock, draws from
//     math/rand, or writes package-level state;
//   - ResultClockTainted: some result value derives from the wall clock or
//     other per-process state (time.Now, os.Getpid), through any number of
//     assignments and arithmetic;
//   - SeedSinkParams: parameters whose value flows into a seed position —
//     rng.New/rng.Derive, a math/rand constructor, or another function's
//     seed-sink parameter — so callers of helpers are checked at the same
//     strength as direct calls;
//   - ParamToResult / ParamArithToResult: parameters that flow into a
//     result value, and the subset that do so through arithmetic. These
//     let rng-taint see laundering through helper functions ("mix(seed)"
//     is still ad-hoc seed arithmetic).
//
// The loader resolves module-local imports before type-checking a package,
// so facts are always computed in dependency order; within a package,
// mutually recursive functions are iterated to a fixpoint (facts only
// grow, and every field is monotone).

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FuncFacts is the exported-function summary stored per *types.Func.
type FuncFacts struct {
	ReadsClock         bool
	ConsumesRNG        bool
	MutatesState       bool
	ResultClockTainted bool
	SeedSinkParams     uint64
	ParamToResult      uint64
	ParamArithToResult uint64
}

// FactsFor returns the computed summary for a function, if its declaring
// package has been loaded.
func (l *Loader) FactsFor(fn *types.Func) (FuncFacts, bool) {
	f, ok := l.facts[fn]
	return f, ok
}

// clockValueFns are stdlib functions whose results derive from per-process
// state; values flowing from them into a seed are flagged by rng-taint.
var clockValueFns = map[[2]string]bool{
	{"time", "Now"}:             true,
	{"time", "Since"}:           true,
	{"time", "Until"}:           true,
	{"os", "Getpid"}:            true,
	{"os", "Getppid"}:           true,
	{"runtime", "NumGoroutine"}: true,
}

// staticCallee resolves the *types.Func a call invokes, for direct calls
// and method calls. Interface dispatch, function values and built-ins
// resolve to nil.
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

// moduleFunc reports whether fn is declared inside this module.
func (l *Loader) moduleFunc(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	p := fn.Pkg().Path()
	return p == l.ModulePath || hasPathPrefix(p, l.ModulePath)
}

func hasPathPrefix(path, prefix string) bool {
	return len(path) > len(prefix) && path[:len(prefix)] == prefix && path[len(prefix)] == '/'
}

// rngConstructor reports whether fn is internal/rng's New or Derive; their
// first argument is the canonical seed position, and their results are
// sanctioned seed-derived values.
func (l *Loader) rngConstructor(fn *types.Func) bool {
	return fn != nil && fn.Pkg() != nil && l.RNGPackage(fn.Pkg().Path()) &&
		(fn.Name() == "New" || fn.Name() == "Derive")
}

// seedSinkArgs returns the argument positions of call that feed a seed:
// arg 0 of rng.New/rng.Derive, every argument of a math/rand constructor
// or rand.Seed, and arguments mapped to a callee's seed-sink parameters.
func (l *Loader) seedSinkArgs(info *types.Info, call *ast.CallExpr) []int {
	fn := staticCallee(info, call)
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	if l.rngConstructor(fn) {
		if len(call.Args) > 0 {
			return []int{0}
		}
		return nil
	}
	switch fn.Pkg().Path() {
	case "math/rand", "math/rand/v2":
		if randConstructors[fn.Name()] || fn.Name() == "Seed" {
			idx := make([]int, len(call.Args))
			for i := range idx {
				idx[i] = i
			}
			return idx
		}
		return nil
	}
	if l.moduleFunc(fn) {
		if facts, ok := l.facts[fn]; ok && facts.SeedSinkParams != 0 {
			var idx []int
			// Methods: the receiver holds parameter slot 0, so argument i
			// corresponds to parameter i+shift.
			shift := 0
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				shift = 1
			}
			for i := range call.Args {
				if facts.SeedSinkParams&(1<<uint(i+shift)) != 0 {
					idx = append(idx, i)
				}
			}
			return idx
		}
	}
	return nil
}

// isSeedField reports whether sel reads (or writes) a field named Seed on
// a module-declared type — the canonical run-seed carrier.
func (l *Loader) isSeedField(info *types.Info, sel *ast.SelectorExpr) bool {
	if sel.Sel.Name != "Seed" {
		return false
	}
	v, ok := info.Uses[sel.Sel].(*types.Var)
	if !ok || !v.IsField() || v.Pkg() == nil {
		return false
	}
	p := v.Pkg().Path()
	return p == l.ModulePath || hasPathPrefix(p, l.ModulePath)
}

// valueFlow summarizes where an expression's value can come from.
type valueFlow struct {
	clock       bool   // wall clock / per-process state
	seedOrigin  bool   // a seed read: .Seed field, rng.Derive/New result, seed-sink param
	seedArith   bool   // arithmetic combining a seed-origin value
	params      uint64 // parameters (by slot) the value flows from
	arithParams uint64 // subset of params that passed through arithmetic
}

func (a *valueFlow) merge(b valueFlow) {
	a.clock = a.clock || b.clock
	a.seedOrigin = a.seedOrigin || b.seedOrigin
	a.seedArith = a.seedArith || b.seedArith
	a.params |= b.params
	a.arithParams |= b.arithParams
}

// flowEval evaluates value flow inside one function body.
type flowEval struct {
	l         *Loader
	info      *types.Info
	du        *defUse
	enclosing *types.Func // for seed-sink-param origins; may be nil
}

func (fe *flowEval) eval(e ast.Expr) valueFlow {
	return fe.evalSeen(e, make(map[ast.Node]bool))
}

var arithOps = map[token.Token]bool{
	token.ADD: true, token.SUB: true, token.MUL: true, token.QUO: true,
	token.REM: true, token.AND: true, token.OR: true, token.XOR: true,
	token.SHL: true, token.SHR: true, token.AND_NOT: true,
}

func (fe *flowEval) evalSeen(e ast.Expr, seen map[ast.Node]bool) (vf valueFlow) {
	if e == nil || seen[e] {
		return
	}
	seen[e] = true
	switch x := e.(type) {
	case *ast.ParenExpr:
		return fe.evalSeen(x.X, seen)
	case *ast.UnaryExpr:
		if x.Op == token.ADD || x.Op == token.SUB || x.Op == token.XOR {
			return fe.evalSeen(x.X, seen)
		}
	case *ast.BinaryExpr:
		if !arithOps[x.Op] {
			return // comparisons and logic produce fresh booleans
		}
		vf.merge(fe.evalSeen(x.X, seen))
		vf.merge(fe.evalSeen(x.Y, seen))
		vf.arithParams |= vf.params
		if vf.seedOrigin {
			vf.seedArith = true
		}
		return
	case *ast.Ident:
		for _, d := range fe.du.defsReaching(x) {
			switch d.kind {
			case defExpr:
				vf.merge(fe.evalSeen(d.rhs, seen))
			case defOpAssn:
				if d.rhs != nil {
					vf.merge(fe.evalSeen(d.rhs, seen))
				}
				var lhs ast.Expr
				switch s := d.node.(type) {
				case *ast.AssignStmt:
					lhs = s.Lhs[0]
				case *ast.IncDecStmt:
					lhs = s.X
				}
				if id, ok := lhs.(*ast.Ident); ok && !seen[id] {
					vf.merge(fe.evalSeen(id, seen))
				}
			case defParam:
				vf.params |= 1 << uint(d.paramIdx)
				if fe.enclosing != nil {
					if f, ok := fe.l.facts[fe.enclosing]; ok &&
						f.SeedSinkParams&(1<<uint(d.paramIdx)) != 0 {
						vf.seedOrigin = true
					}
				}
			}
		}
		return
	case *ast.SelectorExpr:
		if fe.l.isSeedField(fe.info, x) {
			vf.seedOrigin = true
		}
		return
	case *ast.CallExpr:
		// Conversions pass the value through unchanged.
		if tv, ok := fe.info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			return fe.evalSeen(x.Args[0], seen)
		}
		fn := staticCallee(fe.info, x)
		if fn == nil {
			return
		}
		if fe.l.rngConstructor(fn) {
			vf.seedOrigin = true
			return
		}
		if fn.Pkg() != nil && clockValueFns[[2]string{fn.Pkg().Path(), fn.Name()}] {
			vf.clock = true
			return
		}
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil {
			// A method result inherits clock taint from its receiver
			// (time.Now().UnixNano(), d.Seconds(), ...).
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
				if rv := fe.evalSeen(sel.X, seen); rv.clock {
					vf.clock = true
				}
			}
		}
		if fe.l.moduleFunc(fn) {
			facts := fe.l.facts[fn]
			if facts.ResultClockTainted {
				vf.clock = true
			}
			if facts.ParamToResult != 0 {
				shift := 0
				if sig != nil && sig.Recv() != nil {
					shift = 1
				}
				for i, arg := range x.Args {
					bit := uint64(1) << uint(i+shift)
					if facts.ParamToResult&bit == 0 {
						continue
					}
					av := fe.evalSeen(arg, seen)
					vf.clock = vf.clock || av.clock
					vf.params |= av.params
					vf.arithParams |= av.arithParams
					if facts.ParamArithToResult&bit != 0 {
						vf.arithParams |= av.params
						if av.seedOrigin || av.seedArith {
							vf.seedArith = true
						}
					} else {
						vf.seedOrigin = vf.seedOrigin || av.seedOrigin
						vf.seedArith = vf.seedArith || av.seedArith
					}
				}
			}
		}
		return
	}
	return
}

// funcData builds (and caches) the CFG + reaching-definitions solution for
// one function body.
func (l *Loader) funcData(info *types.Info, recv *ast.FieldList, ftype *ast.FuncType, body *ast.BlockStmt) *defUse {
	l.duMu.Lock()
	if du, ok := l.funcDU[body]; ok {
		l.duMu.Unlock()
		return du
	}
	l.duMu.Unlock()
	du := analyzeFunc(info, recv, ftype, body)
	l.duMu.Lock()
	l.funcDU[body] = du
	l.duMu.Unlock()
	return du
}

// computeFacts derives FuncFacts for every function declared in pkg,
// iterating to a fixpoint so same-package recursion converges.
func (l *Loader) computeFacts(pkg *Package) {
	type fnDecl struct {
		obj  *types.Func
		decl *ast.FuncDecl
	}
	var fns []fnDecl
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fns = append(fns, fnDecl{obj, fd})
		}
	}
	for pass := 0; pass <= len(fns)+1; pass++ {
		changed := false
		for _, fn := range fns {
			nf := l.factsForDecl(pkg, fn.obj, fn.decl)
			if old, had := l.facts[fn.obj]; !had || nf != old {
				l.facts[fn.obj] = nf
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

func (l *Loader) factsForDecl(pkg *Package, obj *types.Func, decl *ast.FuncDecl) FuncFacts {
	facts := l.facts[obj]
	info := pkg.Info

	// Boolean effect facts scan the whole body, including nested function
	// literals: a closure that reads the clock still makes the function a
	// clock reader from the caller's point of view.
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			fn := staticCallee(info, x)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				if wallClockFns[fn.Name()] {
					facts.ReadsClock = true
				}
			case "math/rand", "math/rand/v2":
				facts.ConsumesRNG = true
			}
			if l.moduleFunc(fn) {
				cf := l.facts[fn]
				facts.ReadsClock = facts.ReadsClock || cf.ReadsClock
				facts.ConsumesRNG = facts.ConsumesRNG || cf.ConsumesRNG
				facts.MutatesState = facts.MutatesState || cf.MutatesState
			}
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if v := writtenPackageVar(info, lhs); v != nil {
					facts.MutatesState = true
				}
			}
		case *ast.IncDecStmt:
			if v := writtenPackageVar(info, x.X); v != nil {
				facts.MutatesState = true
			}
		}
		return true
	})

	du := l.funcData(info, decl.Recv, decl.Type, decl.Body)
	fe := &flowEval{l: l, info: info, du: du, enclosing: obj}

	// Result taint: explicit return values, plus every assignment to a
	// named result (covers naked returns, over-approximating which return
	// each assignment reaches).
	resultVars := make(map[*types.Var]bool)
	for _, d := range du.defs {
		if d.kind == defResult {
			resultVars[d.obj] = true
		}
	}
	noteResult := func(vf valueFlow) {
		if vf.clock {
			facts.ResultClockTainted = true
		}
		facts.ParamToResult |= vf.params
		facts.ParamArithToResult |= vf.arithParams
	}
	for _, blk := range du.g.blocks {
		for _, n := range blk.nodes {
			switch s := n.(type) {
			case *ast.ReturnStmt:
				for _, e := range s.Results {
					noteResult(fe.eval(e))
				}
			case *ast.AssignStmt:
				for i, lhs := range s.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || !resultVars[du.localVar(id)] {
						continue
					}
					if len(s.Rhs) == len(s.Lhs) {
						noteResult(fe.eval(s.Rhs[i]))
					}
				}
			}
			// Seed sinks: arguments feeding a seed position, and writes
			// to module Seed fields.
			scanShallow(n, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					for _, i := range l.seedSinkArgs(info, call) {
						facts.SeedSinkParams |= fe.eval(call.Args[i]).params
					}
				}
				return true
			})
			if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
				for i, lhs := range as.Lhs {
					if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok && l.isSeedField(info, sel) {
						facts.SeedSinkParams |= fe.eval(as.Rhs[i]).params
					}
				}
			}
		}
	}
	return facts
}

// writtenPackageVar resolves an assignment target to the package-level
// variable it mutates, or nil: the base of selector/index/star chains, or
// the selected variable for qualified names (pkg.Var).
func writtenPackageVar(info *types.Info, lhs ast.Expr) *types.Var {
	for {
		switch x := lhs.(type) {
		case *ast.ParenExpr:
			lhs = x.X
		case *ast.IndexExpr:
			lhs = x.X
		case *ast.SliceExpr:
			lhs = x.X
		case *ast.StarExpr:
			lhs = x.X
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
					lhs = x.Sel
					continue
				}
			}
			lhs = x.X
		case *ast.Ident:
			obj := info.Uses[x]
			if obj == nil {
				obj = info.Defs[x]
			}
			v, ok := obj.(*types.Var)
			if !ok || v.Pkg() == nil || v.IsField() {
				return nil
			}
			if v.Parent() == v.Pkg().Scope() {
				return v
			}
			return nil
		default:
			return nil
		}
	}
}
