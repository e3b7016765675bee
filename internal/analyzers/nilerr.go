package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
)

// nilerr is the flow-sensitive error-discipline check. Over the CFG of
// each function it tracks (value, err) pairs assigned together from
// one call and the nilness of each error along branches:
//
//   - a result is dereferenced (selector, index, call, star) on a path
//     where its companion error is known non-nil;
//   - an error still pending (assigned, never read) is overwritten by
//     a second assignment — the classic shadow/overwrite-before-check;
//   - an error is pending at function exit on some path — assigned and
//     never read at all.
//
// Errors that escape into closures or have their address taken are not
// tracked (the closure may read them later); reading an error in any
// expression — a comparison, a return, a call argument — consumes it.

type errPath int8

const (
	pathUnknown errPath = iota
	pathNil             // err == nil held on this path
	pathNonNil          // err != nil held on this path
)

// nilErrFact is the per-object lattice value: error objects use
// pending/assignPos/path, result objects use companion (the error
// assigned alongside them).
type nilErrFact struct {
	pending   bool
	assignPos token.Pos
	path      errPath
	companion types.Object
}

type nilErrState map[types.Object]nilErrFact

func (s nilErrState) clone() nilErrState {
	out := make(nilErrState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

func checkNilErr() Check {
	return Check{
		ID: "nilerr",
		Doc: "result used on a path where its companion error is non-nil; " +
			"error overwritten or dropped before being read",
		OnFunc: runNilErr,
	}
}

// nilErrAnalysis is the per-function context shared by the transfer
// function and the reporting pass.
type nilErrAnalysis struct {
	fn *FlowFunc
	// escaped objects are never tracked: captured by a closure or
	// address-taken anywhere in the function.
	escaped map[types.Object]bool
	// namedErrs are named error results; a bare return reads them.
	namedErrs []types.Object
	diags     []Diagnostic
	report    bool
}

func runNilErr(fn *FlowFunc) []Diagnostic {
	a := &nilErrAnalysis{fn: fn, escaped: map[types.Object]bool{}}
	a.scanEscapes()
	a.scanNamedErrs()
	problem := FlowProblem[nilErrState]{
		Entry:    func() nilErrState { return nilErrState{} },
		Transfer: a.transfer,
		Branch:   a.branch,
		Join:     joinNilErr,
		Equal:    equalNilErr,
	}
	in := ForwardFlow(fn.G, problem)
	// Reporting pass: replay each reachable block's transfer with
	// diagnostics enabled, then check what is still pending at exit.
	a.report = true
	for _, b := range fn.G.Blocks {
		if st, ok := in[b]; ok {
			a.transfer(b, st)
		}
	}
	if exit, ok := in[fn.G.Exit]; ok {
		reported := map[token.Pos]bool{}
		for obj, f := range exit {
			if f.pending && !reported[f.assignPos] {
				reported[f.assignPos] = true
				a.diags = append(a.diags, diag(fn.File.Fset, f.assignPos, "nilerr", SeverityError,
					"error %s is assigned here but never read before return", obj.Name()))
			}
		}
	}
	return a.diags
}

// scanEscapes marks objects that leave direct flow: referenced inside
// any function literal or address-taken.
func (a *nilErrAnalysis) scanEscapes() {
	ast.Inspect(a.fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			ast.Inspect(n.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if obj := a.objOf(id); obj != nil {
						a.escaped[obj] = true
					}
				}
				return true
			})
			return false
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if id, ok := n.X.(*ast.Ident); ok {
					if obj := a.objOf(id); obj != nil {
						a.escaped[obj] = true
					}
				}
			}
		}
		return true
	})
}

func (a *nilErrAnalysis) scanNamedErrs() {
	var ft *ast.FuncType
	if a.fn.Decl != nil {
		ft = a.fn.Decl.Type
	} else {
		ft = a.fn.Lit.Type
	}
	if ft.Results == nil {
		return
	}
	for _, field := range ft.Results.List {
		for _, name := range field.Names {
			if obj := a.fn.File.Package.Info.Defs[name]; obj != nil && isErrorType(obj.Type()) {
				a.namedErrs = append(a.namedErrs, obj)
			}
		}
	}
}

func (a *nilErrAnalysis) objOf(id *ast.Ident) types.Object {
	info := a.fn.File.Package.Info
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// trackable reports whether an object is a local variable we follow.
func (a *nilErrAnalysis) trackable(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() || a.escaped[obj] {
		return false
	}
	// Locals only: the object must be declared inside this function.
	return obj.Pos() >= a.fn.Body.Pos() && obj.Pos() <= a.fn.Body.End() ||
		a.isNamedResult(obj)
}

func (a *nilErrAnalysis) isNamedResult(obj types.Object) bool {
	for _, o := range a.namedErrs {
		if o == obj {
			return true
		}
	}
	return false
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

func (a *nilErrAnalysis) emit(n ast.Node, format string, args ...any) {
	if !a.report {
		return
	}
	a.diags = append(a.diags, diag(a.fn.File.Fset, n.Pos(), "nilerr", SeverityError, format, args...))
}

// transfer walks one block's nodes in evaluation order, updating a
// copy of the incoming state.
func (a *nilErrAnalysis) transfer(b *Block, in nilErrState) nilErrState {
	st := in.clone()
	for _, n := range b.Nodes {
		a.node(n, st)
	}
	return st
}

func (a *nilErrAnalysis) node(n ast.Node, st nilErrState) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, rhs := range n.Rhs {
			a.reads(rhs, st)
		}
		a.assign(n, n.Lhs, n.Rhs, st)
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok || len(vs.Values) == 0 {
				continue
			}
			for _, rhs := range vs.Values {
				a.reads(rhs, st)
			}
			lhs := make([]ast.Expr, len(vs.Names))
			for i, name := range vs.Names {
				lhs[i] = name
			}
			a.assign(n, lhs, vs.Values, st)
		}
	case *ast.RangeStmt:
		a.reads(n.X, st)
		for _, e := range []ast.Expr{n.Key, n.Value} {
			if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
				if obj := a.objOf(id); obj != nil {
					delete(st, obj)
				}
			}
		}
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			a.reads(r, st)
		}
		if len(n.Results) == 0 {
			// Bare return reads the named results.
			for _, obj := range a.namedErrs {
				if f, ok := st[obj]; ok {
					f.pending = false
					st[obj] = f
				}
			}
		}
	default:
		if e, ok := n.(ast.Expr); ok {
			a.reads(e, st)
			return
		}
		if s, ok := n.(ast.Stmt); ok {
			a.readsInStmt(s, st)
		}
	}
}

// readsInStmt handles the remaining straight-line statements by
// treating every contained expression as a read.
func (a *nilErrAnalysis) readsInStmt(s ast.Stmt, st nilErrState) {
	inspectOwn(s, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok {
			a.reads(e, st)
			return false
		}
		return true
	})
}

// reads walks an expression, consuming error reads and flagging
// deref-like uses of a result whose companion error is non-nil here.
func (a *nilErrAnalysis) reads(e ast.Expr, st nilErrState) {
	if e == nil {
		return
	}
	inspectOwn(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectorExpr:
			a.derefUse(n.X, n, st)
		case *ast.IndexExpr:
			a.derefUse(n.X, n, st)
		case *ast.StarExpr:
			a.derefUse(n.X, n, st)
		case *ast.CallExpr:
			a.derefUse(n.Fun, n, st)
		case *ast.Ident:
			obj := a.objOf(n)
			if obj == nil {
				return true
			}
			if f, ok := st[obj]; ok && f.pending {
				f.pending = false
				st[obj] = f
			}
		}
		return true
	})
}

// derefUse flags base.n when base is a tracked result whose companion
// error is non-nil on this path.
func (a *nilErrAnalysis) derefUse(base ast.Expr, use ast.Node, st nilErrState) {
	id, ok := base.(*ast.Ident)
	if !ok {
		return
	}
	obj := a.objOf(id)
	if obj == nil {
		return
	}
	f, ok := st[obj]
	if !ok || f.companion == nil {
		return
	}
	if cf, ok := st[f.companion]; ok && cf.path == pathNonNil {
		a.emit(use, "%s is used here, but %s is non-nil on this path",
			id.Name, f.companion.Name())
	}
}

// assign applies assignment semantics after the RHS reads.
func (a *nilErrAnalysis) assign(site ast.Node, lhs []ast.Expr, rhs []ast.Expr, st nilErrState) {
	hasCall := false
	for _, r := range rhs {
		if _, ok := r.(*ast.CallExpr); ok {
			hasCall = true
		}
	}
	var errObjs, valObjs []types.Object
	for _, l := range lhs {
		id, ok := l.(*ast.Ident)
		if !ok {
			continue
		}
		if id.Name == "_" {
			continue
		}
		obj := a.objOf(id)
		if obj == nil || !a.trackable(obj) {
			continue
		}
		if isErrorType(obj.Type()) {
			errObjs = append(errObjs, obj)
		} else {
			valObjs = append(valObjs, obj)
		}
	}
	for _, obj := range errObjs {
		if f, ok := st[obj]; ok && f.pending {
			a.emit(site, "error %s is overwritten here before the previous value (line %d) was read",
				obj.Name(), a.fn.lineOf(f.assignPos))
		}
		if hasCall {
			st[obj] = nilErrFact{pending: true, assignPos: site.Pos()}
		} else {
			delete(st, obj)
		}
	}
	for _, obj := range valObjs {
		// A result tracked from a previous call is reassigned; the old
		// pairing no longer holds.
		delete(st, obj)
		if hasCall && len(rhs) == 1 && len(errObjs) == 1 {
			st[obj] = nilErrFact{companion: errObjs[0]}
		}
	}
	// Any result paired with a reassigned error keeps pointing at the
	// object, which now holds a fresh value; the pairing still means
	// "assigned together", so only sever pairs whose error was
	// reassigned alone.
	if len(valObjs) == 0 {
		for _, eo := range errObjs {
			for obj, f := range st {
				if f.companion == eo {
					delete(st, obj)
				}
			}
		}
	}
}

// branch refines error nilness along `err != nil` / `err == nil`
// edges.
func (a *nilErrAnalysis) branch(cond ast.Expr, taken bool, out nilErrState) nilErrState {
	be, ok := cond.(*ast.BinaryExpr)
	if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
		return out
	}
	var id *ast.Ident
	if x, ok := be.X.(*ast.Ident); ok && isNilIdent(be.Y) {
		id = x
	} else if y, ok := be.Y.(*ast.Ident); ok && isNilIdent(be.X) {
		id = y
	}
	if id == nil {
		return out
	}
	obj := a.objOf(id)
	if obj == nil || !isErrorType(obj.Type()) {
		return out
	}
	f := out[obj]
	// err != nil taken, or err == nil not taken → non-nil.
	if (be.Op == token.NEQ) == taken {
		f.path = pathNonNil
	} else {
		f.path = pathNil
	}
	st := out.clone()
	st[obj] = f
	return st
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// joinNilErr merges two path states. pending intersects (an error
// counts as dropped only when no path reads it — the
// close-error-precedence idiom assigns cerr and reads it on just one
// arm, which is fine); path and companion facts must agree or reset.
func joinNilErr(x, y nilErrState) nilErrState {
	out := x.clone()
	for obj, fy := range y {
		fx, ok := out[obj]
		if !ok {
			// Unassigned on the other path: not pending there.
			fy.pending = false
			out[obj] = fy
			continue
		}
		merged := nilErrFact{
			pending: fx.pending && fy.pending,
		}
		switch {
		case fx.assignPos == 0:
			merged.assignPos = fy.assignPos
		case fy.assignPos == 0 || fx.assignPos < fy.assignPos:
			merged.assignPos = fx.assignPos
		default:
			merged.assignPos = fy.assignPos
		}
		if fx.path == fy.path {
			merged.path = fx.path
		}
		if fx.companion == fy.companion {
			merged.companion = fx.companion
		}
		out[obj] = merged
	}
	for obj, fx := range out {
		if _, ok := y[obj]; !ok && fx.pending {
			fx.pending = false
			out[obj] = fx
		}
	}
	return out
}

func equalNilErr(x, y nilErrState) bool {
	if len(x) != len(y) {
		return false
	}
	for k, vx := range x {
		if vy, ok := y[k]; !ok || vx != vy {
			return false
		}
	}
	return true
}
