package analyzers

import (
	"go/ast"
	"go/types"
)

// hotpath polices the loops of functions annotated //lint:hot — the
// LBM kernels and the serve/cluster request paths. Inside a loop of a
// hot function it flags the allocation patterns that wreck a
// lattice-update sweep: defer (allocates and defers work to function
// exit), map allocation, append to a slice declared without capacity,
// closure creation that captures locals, and implicit interface
// boxing at call sites. Loop membership comes from the CFG's cycles,
// so goto-formed loops count.

func checkHotPath() Check {
	return Check{
		ID: "hotpath",
		Doc: "allocation or hidden cost in a loop of a //lint:hot " +
			"function: defer, map alloc, append without preallocation, " +
			"capturing closure, interface boxing",
		OnFunc: runHotPath,
	}
}

func runHotPath(fn *FlowFunc) []Diagnostic {
	if !fn.Hot {
		return nil
	}
	a := &hotAnalysis{fn: fn}
	a.scanSliceDecls()
	for _, b := range fn.G.Blocks {
		if !b.InLoop {
			continue
		}
		for _, n := range b.Nodes {
			a.node(n)
		}
	}
	return a.diags
}

type hotAnalysis struct {
	fn *FlowFunc
	// noCapSlices are local slices declared without capacity: var s
	// []T, s := []T{}, s := make([]T, 0).
	noCapSlices map[types.Object]bool
	diags       []Diagnostic
}

func (a *hotAnalysis) emit(n ast.Node, format string, args ...any) {
	a.diags = append(a.diags, diag(a.fn.File.Fset, n.Pos(), "hotpath", SeverityError, format, args...))
}

// scanSliceDecls records local slice variables declared without any
// capacity hint anywhere in the function.
func (a *hotAnalysis) scanSliceDecls() {
	a.noCapSlices = map[types.Object]bool{}
	info := a.fn.File.Package.Info
	mark := func(id *ast.Ident) {
		obj := info.Defs[id]
		if obj == nil {
			return
		}
		if _, ok := obj.Type().Underlying().(*types.Slice); ok {
			a.noCapSlices[obj] = true
		}
	}
	inspectOwn(a.fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ValueSpec:
			if len(n.Values) == 0 {
				for _, name := range n.Names {
					mark(name)
				}
				return true
			}
			for i, name := range n.Names {
				if i < len(n.Values) && uncappedSliceExpr(n.Values[i]) {
					mark(name)
				}
			}
		case *ast.AssignStmt:
			for i, l := range n.Lhs {
				id, ok := l.(*ast.Ident)
				if !ok || i >= len(n.Rhs) {
					continue
				}
				if uncappedSliceExpr(n.Rhs[i]) {
					mark(id)
				}
			}
		}
		return true
	})
}

// uncappedSliceExpr reports whether an initializer allocates a slice
// with no useful capacity: an empty composite literal or make with
// length zero and no capacity argument.
func uncappedSliceExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CompositeLit:
		_, isArr := e.Type.(*ast.ArrayType)
		return isArr && len(e.Elts) == 0
	case *ast.CallExpr:
		id, ok := e.Fun.(*ast.Ident)
		if !ok || id.Name != "make" || len(e.Args) != 2 {
			return false
		}
		if _, ok := e.Args[0].(*ast.ArrayType); !ok {
			return false
		}
		lit, ok := e.Args[1].(*ast.BasicLit)
		return ok && lit.Value == "0"
	}
	return false
}

func (a *hotAnalysis) node(n ast.Node) {
	switch n := n.(type) {
	case *ast.DeferStmt:
		a.emit(n, "defer inside a hot loop allocates per iteration and runs only at function exit; hoist it")
		return
	case *ast.RangeStmt:
		// Only the head (range expression) lives in this block; the
		// body's statements sit in their own blocks.
		a.expr(n.X)
		return
	}
	inspectOwn(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			a.funcLit(m)
			return false
		case *ast.CallExpr:
			a.call(m)
		case *ast.CompositeLit:
			a.composite(m)
		}
		return true
	})
}

func (a *hotAnalysis) expr(e ast.Expr) {
	if e == nil {
		return
	}
	a.node(e)
}

func (a *hotAnalysis) typeOf(e ast.Expr) types.Type {
	if tv, ok := a.fn.File.Package.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

func (a *hotAnalysis) composite(lit *ast.CompositeLit) {
	if t := a.typeOf(lit); t != nil {
		if _, ok := t.Underlying().(*types.Map); ok {
			a.emit(lit, "map literal allocated inside a hot loop; hoist it out or reuse one allocation")
		}
	}
}

func (a *hotAnalysis) funcLit(lit *ast.FuncLit) {
	info := a.fn.File.Package.Info
	captured := map[string]bool{}
	var order []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		v, isVar := obj.(*types.Var)
		if !isVar || v.IsField() {
			return true
		}
		// Captured: declared in the enclosing function (inside the hot
		// body but outside the literal).
		if obj.Pos() >= a.fn.Body.Pos() && obj.Pos() < lit.Pos() || obj.Pos() > lit.End() && obj.Pos() <= a.fn.Body.End() {
			if !captured[v.Name()] {
				captured[v.Name()] = true
				order = append(order, v.Name())
			}
		}
		return true
	})
	if len(order) > 0 {
		a.emit(lit, "closure capturing %s inside a hot loop allocates per iteration", joinNames(order))
	}
}

func joinNames(names []string) string {
	switch len(names) {
	case 1:
		return names[0]
	case 2:
		return names[0] + " and " + names[1]
	}
	out := ""
	for i, n := range names[:len(names)-1] {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out + ", and " + names[len(names)-1]
}

func (a *hotAnalysis) call(call *ast.CallExpr) {
	// Builtins: make(map) and append-without-prealloc.
	if id, ok := call.Fun.(*ast.Ident); ok {
		switch id.Name {
		case "make":
			if t := a.typeOf(call); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					a.emit(call, "map allocated inside a hot loop; hoist it out or reuse one allocation")
				}
			}
			return
		case "append":
			if len(call.Args) > 0 {
				if target, ok := call.Args[0].(*ast.Ident); ok {
					if obj := a.fn.File.Package.Info.Uses[target]; obj != nil && a.noCapSlices[obj] {
						a.emit(call, "append to %s (declared without capacity) inside a hot loop; pre-size it with make",
							target.Name)
					}
				}
			}
			return
		}
	}
	// Interface boxing at ordinary call sites.
	ft := a.typeOf(call.Fun)
	if ft == nil {
		return
	}
	sig, ok := ft.Underlying().(*types.Signature)
	if !ok {
		return // conversion or builtin
	}
	params := sig.Params()
	if params == nil {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // passing a slice through, no boxing
			}
			slice, ok := params.At(params.Len() - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			pt = slice.Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, ok := pt.Underlying().(*types.Interface); !ok {
			continue
		}
		at := a.typeOf(arg)
		if at == nil {
			continue
		}
		if _, isIface := at.Underlying().(*types.Interface); isIface {
			continue // already an interface, no new box
		}
		if b, ok := at.(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		if _, isPtr := at.Underlying().(*types.Pointer); isPtr {
			// Pointers box without copying the pointee, but still
			// allocate the interface header on conversion paths; keep
			// the finding — hot loops should not convert at all.
		}
		a.emit(arg, "argument %s boxes into interface %s inside a hot loop",
			exprString(arg), pt.String())
	}
}
