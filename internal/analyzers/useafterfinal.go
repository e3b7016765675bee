package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// useafterfinal flags methods called on a handle after it was
// finalized — Close, Stop, Cancel, End — on at least one path through
// the function. The check is seeded with the repo's own lifecycle
// types (obs spans whose End stamps the duration, cluster transports
// and clusters whose Close tears the wire down, the serve drain), and
// generalizes to any module-internal named type with a finalizer-named
// method. Revivers (Reopen, Reset, ...) return the handle to live
// state, a handful of read-only accessors (ID, Err, String, ...) stay
// legal after finalization, and `defer h.Close()` does not finalize at
// the defer site — the call runs at function exit.

var (
	finalizerNames = map[string]bool{
		"Close": true, "Stop": true, "Cancel": true, "End": true,
		"Shutdown": true,
	}
	reviverNames = map[string]bool{
		"Reopen": true, "Reset": true, "Open": true, "Restart": true,
		"Start": true,
	}
	// exemptNames are read-only accessors that stay meaningful on a
	// finalized handle — obs.Span.ID is the seed case: span IDs are
	// read for parent links after End.
	exemptNames = map[string]bool{
		"ID": true, "Err": true, "Error": true, "String": true,
		"Name": true, "State": true, "Stats": true, "Done": true,
	}
)

type finalFact struct {
	finalized bool
	pos       token.Pos // finalizer call site
	method    string
}

type finalState map[types.Object]finalFact

func (s finalState) clone() finalState {
	out := make(finalState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

func checkUseAfterFinal() Check {
	return Check{
		ID: "useafterfinal",
		Doc: "method called on a handle after Close/Stop/Cancel/End on " +
			"some path (obs spans, cluster transports, serve drain, and " +
			"any module type with a finalizer method)",
		OnFunc: runUseAfterFinal,
	}
}

type finalAnalysis struct {
	fn *FlowFunc
	// eligible maps each followed object to its handle type name (for
	// messages); objects that alias away (bare value reads outside a
	// method receiver or nil comparison) are removed up front.
	eligible map[types.Object]string
	diags    []Diagnostic
	report   bool
}

func runUseAfterFinal(fn *FlowFunc) []Diagnostic {
	a := &finalAnalysis{fn: fn, eligible: map[types.Object]string{}}
	a.collectEligible()
	if len(a.eligible) == 0 {
		return nil
	}
	problem := FlowProblem[finalState]{
		Entry:    func() finalState { return finalState{} },
		Transfer: a.transfer,
		Join:     joinFinal,
		Equal:    equalFinal,
	}
	in := ForwardFlow(fn.G, problem)
	a.report = true
	for _, b := range fn.G.Blocks {
		if st, ok := in[b]; ok {
			a.transfer(b, st)
		}
	}
	return a.diags
}

// moduleFirstSegment returns the first path element of the analyzed
// package's import path — the cheap module identity test that keeps
// std-lib types (net/http.Server and friends) out of the seed set.
func (a *finalAnalysis) moduleFirstSegment() string {
	p := a.fn.File.Package.Path
	if i := strings.Index(p, "/"); i >= 0 {
		return p[:i]
	}
	return p
}

// handleTypeName returns the display name of an eligible handle type
// ("" when the type does not qualify): a named type (or pointer to
// one) declared in this module, with at least one finalizer-named
// method in its method set.
func (a *finalAnalysis) handleTypeName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return ""
	}
	pkgPath := obj.Pkg().Path()
	first := pkgPath
	if i := strings.Index(pkgPath, "/"); i >= 0 {
		first = pkgPath[:i]
	}
	if first != a.moduleFirstSegment() {
		return ""
	}
	ms := types.NewMethodSet(types.NewPointer(named))
	for i := 0; i < ms.Len(); i++ {
		if finalizerNames[ms.At(i).Obj().Name()] {
			return obj.Name()
		}
	}
	return ""
}

// collectEligible finds the local variables and parameters of handle
// type, then drops any that alias away: used as a bare value anywhere
// other than a method receiver, an assignment target, or a nil
// comparison.
func (a *finalAnalysis) collectEligible() {
	info := a.fn.File.Package.Info
	candidate := func(id *ast.Ident) types.Object {
		obj := info.Uses[id]
		if obj == nil {
			obj = info.Defs[id]
		}
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() {
			return nil
		}
		return obj
	}
	ast.Inspect(a.fn.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := candidate(id); obj != nil {
				if name := a.handleTypeName(obj.Type()); name != "" {
					if _, seen := a.eligible[obj]; !seen {
						a.eligible[obj] = name
					}
				}
			}
		}
		return true
	})
	// Also cover parameters and receivers never mentioned in the body
	// is pointless — no use means no use-after-final — so body idents
	// suffice. Now drop aliasing uses.
	drop := func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok {
			if obj := candidate(id); obj != nil {
				delete(a.eligible, obj)
			}
		}
	}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Captured by a closure: the closure may call anything at
			// any time; stop following the captured handles.
			ast.Inspect(n.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					drop(id)
				}
				return true
			})
			return false
		case *ast.SelectorExpr:
			// h.Method / h.Field: receiver position, fine. Walk only
			// deeper bases (h.a.b keeps h in receiver position too).
			if _, ok := n.X.(*ast.Ident); ok {
				return false
			}
			return true
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				if _, ok := l.(*ast.Ident); ok {
					continue // reassignment handled by the transfer
				}
				ast.Inspect(l, func(m ast.Node) bool { return visit(m) })
			}
			for _, r := range n.Rhs {
				// h on the right of an assignment is an alias escape
				// unless it is a call/selector chain.
				ast.Inspect(r, func(m ast.Node) bool { return visit(m) })
			}
			return false
		case *ast.BinaryExpr:
			// Comparisons against nil keep the handle followable.
			if isNilIdent(n.X) || isNilIdent(n.Y) {
				return false
			}
			return true
		case *ast.Ident:
			drop(n)
			return false
		}
		return true
	}
	for _, stmt := range a.fn.Body.List {
		walkAliasUses(stmt, visit)
	}
}

// walkAliasUses applies the alias visitor to every value-position use
// in a statement, skipping contexts that keep the handle followable.
func walkAliasUses(n ast.Node, visit func(ast.Node) bool) {
	ast.Inspect(n, visit)
}

func (a *finalAnalysis) emit(n ast.Node, format string, args ...any) {
	if !a.report {
		return
	}
	a.diags = append(a.diags, diag(a.fn.File.Fset, n.Pos(), "useafterfinal", SeverityError, format, args...))
}

func (a *finalAnalysis) transfer(b *Block, in finalState) finalState {
	st := in.clone()
	for _, n := range b.Nodes {
		switch n := n.(type) {
		case *ast.DeferStmt:
			// The deferred finalizer runs at function exit; arguments
			// are evaluated here but the handle stays live.
			continue
		case *ast.GoStmt:
			continue
		case *ast.AssignStmt:
			inspectOwn(n, func(m ast.Node) bool { return a.visitCall(m, st) })
			for _, l := range n.Lhs {
				if id, ok := l.(*ast.Ident); ok {
					if obj := a.objFor(id); obj != nil {
						delete(st, obj) // reassigned: fresh handle
					}
				}
			}
		case *ast.RangeStmt:
			inspectOwn(n.X, func(m ast.Node) bool { return a.visitCall(m, st) })
		default:
			inspectOwn(n, func(m ast.Node) bool { return a.visitCall(m, st) })
		}
	}
	return st
}

func (a *finalAnalysis) objFor(id *ast.Ident) types.Object {
	info := a.fn.File.Package.Info
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	if obj == nil {
		return nil
	}
	if _, ok := a.eligible[obj]; !ok {
		return nil
	}
	return obj
}

// visitCall applies finalizer/reviver/use semantics to method calls on
// followed handles.
func (a *finalAnalysis) visitCall(n ast.Node, st finalState) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return true
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return true
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return true
	}
	obj := a.objFor(id)
	if obj == nil {
		return true
	}
	method := sel.Sel.Name
	switch {
	case finalizerNames[method]:
		st[obj] = finalFact{finalized: true, pos: call.Pos(), method: method}
	case reviverNames[method]:
		delete(st, obj)
	default:
		if f, ok := st[obj]; ok && f.finalized && !exemptNames[method] {
			a.emit(call, "%s.%s called on a path where %s.%s already ran (line %d)",
				id.Name, method, id.Name, f.method, a.fn.lineOf(f.pos))
		}
	}
	return true
}

func joinFinal(x, y finalState) finalState {
	out := x.clone()
	for obj, fy := range y {
		fx, ok := out[obj]
		if !ok || (fy.finalized && !fx.finalized) {
			out[obj] = fy
			continue
		}
		if fx.finalized && fy.finalized && fy.pos < fx.pos {
			out[obj] = fy
		}
	}
	return out
}

func equalFinal(x, y finalState) bool {
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
