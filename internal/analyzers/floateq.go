package analyzers

import (
	"go/ast"
	"go/token"
)

// mathFloatFuncs are math package functions returning float64 — calls
// to them make an expression float without needing type information.
// Predicates (IsNaN, Signbit, ...) are deliberately absent.
var mathFloatFuncs = map[string]bool{
	"Abs": true, "Acos": true, "Asin": true, "Atan": true, "Atan2": true,
	"Cbrt": true, "Ceil": true, "Copysign": true, "Cos": true, "Cosh": true,
	"Dim": true, "Erf": true, "Erfc": true, "Exp": true, "Exp2": true,
	"Expm1": true, "Floor": true, "FMA": true, "Gamma": true, "Hypot": true,
	"Inf": true, "Log": true, "Log10": true, "Log1p": true, "Log2": true,
	"Max": true, "Min": true, "Mod": true, "NaN": true, "Pow": true,
	"Remainder": true, "Round": true, "Sin": true, "Sinh": true,
	"Sqrt": true, "Tan": true, "Tanh": true, "Trunc": true,
}

// checkFloatEq flags == and != between floating-point operands.
// Exact float equality is almost always a latent bug in numerical
// code; the rare intentional uses (exact-zero guards before a
// division, sentinel values) must say so with a suppression comment.
//
// Floatness is established per function by syntactic inference: float
// literals, float64/float32 parameters, results and declarations,
// conversions, math.* calls, and propagation through := chains and
// arithmetic. The check never sees go/types, so a float variable that
// only ever crosses package boundaries can escape it — the goal is
// catching the overwhelmingly common local patterns, not completeness.
func checkFloatEq() Check {
	const id = "floateq"
	return Check{
		ID:  id,
		Doc: "no ==/!= on floating-point operands (use an epsilon or suppress with a reason)",
		OnFile: func(f *File) []Diagnostic {
			var diags []Diagnostic
			funcDecls(f.AST, func(name string, ftype *ast.FuncType, body *ast.BlockStmt) {
				floats := floatIdents(ftype, body)
				ast.Inspect(body, func(n ast.Node) bool {
					be, ok := n.(*ast.BinaryExpr)
					if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
						return true
					}
					if isFloatExpr(be.X, floats) || isFloatExpr(be.Y, floats) {
						diags = append(diags, diag(f.Fset, be.OpPos, id, SeverityError,
							"%s on float operands (%s %s %s); compare with a tolerance",
							be.Op, exprString(be.X), be.Op, exprString(be.Y)))
					}
					return true
				})
			})
			return diags
		},
	}
}

// floatIdents infers the set of identifiers with floating-point type
// in one function: parameters, named results, var declarations, and
// := targets whose right-hand side is float, iterated to a fixpoint so
// chains like a := 1.0; b := a; c := b*2 resolve.
func floatIdents(ftype *ast.FuncType, body *ast.BlockStmt) map[string]bool {
	floats := map[string]bool{}
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			if isFloatType(field.Type) {
				for _, n := range field.Names {
					floats[n.Name] = true
				}
			}
		}
	}
	addFields(ftype.Params)
	addFields(ftype.Results)

	for pass := 0; pass < 4; pass++ {
		before := len(floats)
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.DeclStmt:
				gd, ok := n.Decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					return true
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					isFloat := vs.Type != nil && isFloatType(vs.Type)
					for i, name := range vs.Names {
						if isFloat || (vs.Type == nil && i < len(vs.Values) && isFloatExpr(vs.Values[i], floats)) {
							floats[name.Name] = true
						}
					}
				}
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, lhs := range n.Lhs {
					name, ok := lhs.(*ast.Ident)
					if ok && isFloatExpr(n.Rhs[i], floats) {
						floats[name.Name] = true
					}
				}
			}
			return true
		})
		if len(floats) == before {
			break
		}
	}
	return floats
}

// isFloatExpr reports whether an expression is syntactically known to
// be floating point given the inferred identifier set.
func isFloatExpr(e ast.Expr, floats map[string]bool) bool {
	switch e := e.(type) {
	case *ast.BasicLit:
		return e.Kind == token.FLOAT
	case *ast.Ident:
		return floats[e.Name]
	case *ast.ParenExpr:
		return isFloatExpr(e.X, floats)
	case *ast.UnaryExpr:
		return isFloatExpr(e.X, floats)
	case *ast.BinaryExpr:
		switch e.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO:
			return isFloatExpr(e.X, floats) || isFloatExpr(e.Y, floats)
		}
	case *ast.CallExpr:
		recv, name := calleeOf(e)
		if recv == "" && (name == "float64" || name == "float32") {
			return true
		}
		if recv == "math" && mathFloatFuncs[name] {
			return true
		}
	case *ast.SelectorExpr:
		// Field suffixed with a unit whose dimension is continuous is
		// overwhelmingly a float in this codebase.
		return unitOf(e.Sel.Name) != ""
	}
	return false
}
