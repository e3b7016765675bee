package analyzers

import (
	"go/ast"
	"go/types"
)

// checkTypeAssert flags single-result type assertions: x.(T) outside
// the v, ok := form panics on the first unexpected dynamic type, which
// in this codebase means a scheduler or campaign run dying mid-flight
// instead of reporting a typed error. The message names the syntactic
// context (return, call argument, assignment, expression) so the
// rewrite is obvious.
func checkTypeAssert() Check {
	const id = "typeassert"
	return Check{
		ID:  id,
		Doc: "type assertions must use the v, ok := comma-ok form; a bare x.(T) panics at runtime on an unexpected dynamic type",
		OnTypedFile: func(f *TypedFile) []Diagnostic {
			var diags []Diagnostic

			// Assertions whose result count makes them safe: the
			// comma-ok form and the type-switch guard.
			safe := map[*ast.TypeAssertExpr]bool{}
			parent := map[ast.Node]ast.Node{}
			var stack []ast.Node
			ast.Inspect(f.AST, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				if len(stack) > 0 {
					parent[n] = stack[len(stack)-1]
				}
				stack = append(stack, n)
				switch n := n.(type) {
				case *ast.AssignStmt:
					if len(n.Lhs) == 2 && len(n.Rhs) == 1 {
						if ta, ok := n.Rhs[0].(*ast.TypeAssertExpr); ok {
							safe[ta] = true
						}
					}
				case *ast.ValueSpec:
					if len(n.Names) == 2 && len(n.Values) == 1 {
						if ta, ok := n.Values[0].(*ast.TypeAssertExpr); ok {
							safe[ta] = true
						}
					}
				}
				return true
			})

			ast.Inspect(f.AST, func(n ast.Node) bool {
				ta, ok := n.(*ast.TypeAssertExpr)
				if !ok || ta.Type == nil || safe[ta] {
					return true // ta.Type == nil is a type-switch guard
				}
				diags = append(diags, diag(f.Fset, ta.Pos(), id, SeverityError,
					"bare type assertion %s.(%s) %s; use the v, ok := form so an unexpected dynamic type cannot panic",
					exprString(ta.X), assertedType(f, ta), assertContext(parent, ta)))
				return true
			})
			return diags
		},
	}
}

// assertedType renders the asserted type, preferring go/types' view.
func assertedType(f *TypedFile, ta *ast.TypeAssertExpr) string {
	if tv, ok := f.Package.Info.Types[ta.Type]; ok && tv.Type != nil {
		return types.TypeString(tv.Type, types.RelativeTo(f.Package.Types))
	}
	return exprString(ta.Type)
}

// assertContext names the nearest enclosing construct of a bare
// assertion, walking the parent chain until a statement is found.
func assertContext(parent map[ast.Node]ast.Node, n ast.Node) string {
	for p := parent[n]; p != nil; p = parent[p] {
		switch p.(type) {
		case *ast.ReturnStmt:
			return "in a return statement"
		case *ast.CallExpr:
			return "as a call argument"
		case *ast.AssignStmt, *ast.ValueSpec:
			return "on the right-hand side of an assignment"
		case *ast.BlockStmt, *ast.FuncDecl, *ast.FuncLit:
			return "in an expression"
		}
	}
	return "in an expression"
}
