package analyzers

import (
	"go/ast"
)

// errorProneCallees are well-known stdlib-ish call names whose final
// result is an error; a blank in that slot is flagged even when the
// callee cannot be resolved within the package.
var errorProneCallees = map[string]bool{
	"Atoi": true, "ParseFloat": true, "ParseInt": true, "ParseBool": true,
	"Open": true, "Create": true, "Stat": true, "ReadFile": true,
	"WriteFile": true, "ReadAll": true, "ReadDir": true,
	"Marshal": true, "MarshalIndent": true, "Unmarshal": true,
	"Write": true, "WriteString": true, "Read": true,
	"Close": true, "Flush": true, "Sync": true,
	"Parse": true, "Compile": true,
}

// checkDroppedErr flags silently discarded error returns:
//
//   - `_ = expr` statements that discard a call result;
//   - a blank identifier in the final position of a multi-assign from a
//     call whose last result is an error (resolved against the package's
//     own declarations, or a conservative stdlib name list otherwise);
//   - bare call statements to package-local functions returning an
//     error, and to unresolved Close/Flush/Sync-style callees.
//
// Deferred calls are exempt: `defer f.Close()` is accepted idiom for
// read paths.
func checkDroppedErr() Check {
	const id = "droppederr"
	return Check{
		ID:  id,
		Doc: "no silently discarded error returns (handle it or //lint:ignore droppederr <reason>)",
		OnFile: func(f *File) []Diagnostic {
			var diags []Diagnostic
			returnsErr := packageErrorFuncs(f.Siblings)

			ast.Inspect(f.AST, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					diags = append(diags, dropsInAssign(f, id, n, returnsErr)...)
				case *ast.ExprStmt:
					call, ok := n.X.(*ast.CallExpr)
					if !ok {
						return true
					}
					recv, name := calleeOf(call)
					// Method calls resolve by bare name, which is
					// unsound across receiver types (a local Step
					// returning error must not indict lbm's Step that
					// returns nothing) — so selector callees only use
					// the conservative always-error name list.
					switch {
					case recv == "" && returnsErr[name]:
						diags = append(diags, diag(f.Fset, call.Pos(), id, SeverityError,
							"error return of %s ignored", name))
					case recv != "" && (name == "Close" || name == "Flush" || name == "Sync"):
						diags = append(diags, diag(f.Fset, call.Pos(), id, SeverityError,
							"error return of %s ignored", callLabel(recv, name)))
					}
				}
				return true
			})
			return diags
		},
	}
}

// dropsInAssign inspects one assignment for blank-discarded results.
func dropsInAssign(f *File, id string, n *ast.AssignStmt, returnsErr map[string]bool) []Diagnostic {
	var diags []Diagnostic

	// `_ = expr`: an explicit single discard. Only call results are
	// flagged — `_ = someVar` is the compiler-pacifying idiom for
	// intentionally unused values and carries no error.
	if len(n.Lhs) == 1 && len(n.Rhs) == 1 && isBlank(n.Lhs[0]) {
		if call, ok := n.Rhs[0].(*ast.CallExpr); ok {
			recv, name := calleeOf(call)
			diags = append(diags, diag(f.Fset, n.Pos(), id, SeverityError,
				"result of %s discarded with _ =; handle it or suppress with a reason", callLabel(recv, name)))
		}
		return diags
	}

	// `a, _ := call(...)`: blank in the final slot of a call's results.
	if len(n.Rhs) == 1 && len(n.Lhs) > 1 && isBlank(n.Lhs[len(n.Lhs)-1]) {
		call, ok := n.Rhs[0].(*ast.CallExpr)
		if !ok {
			return diags
		}
		recv, name := calleeOf(call)
		errKnown, resolved := returnsErr[name]
		if (resolved && errKnown) || (!resolved && errorProneCallees[name]) {
			diags = append(diags, diag(f.Fset, n.Pos(), id, SeverityError,
				"error result of %s discarded with a blank identifier", callLabel(recv, name)))
		}
	}
	return diags
}

// packageErrorFuncs maps every function and method name declared in the
// package to whether its final result is an error. A name declared
// with both shapes (some method returning error, another not) resolves
// to the safe answer: not flagged.
func packageErrorFuncs(files []*ast.File) map[string]bool {
	out := map[string]bool{}
	for _, af := range files {
		for _, decl := range af.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			last := lastResult(fd.Type)
			isErr := last != nil && isErrorIdent(last)
			if prev, seen := out[fd.Name.Name]; seen {
				out[fd.Name.Name] = prev && isErr
				continue
			}
			out[fd.Name.Name] = isErr
		}
	}
	return out
}

// isBlank reports whether an expression is the blank identifier.
func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// callLabel renders recv.name or name for diagnostics.
func callLabel(recv, name string) string {
	if recv == "" {
		return name
	}
	return recv + "." + name
}
