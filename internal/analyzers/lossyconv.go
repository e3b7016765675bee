package analyzers

import (
	"go/ast"
	"go/types"
)

// checkLossyConv flags lossy integer conversions of byte-count and
// halo-count quantities. A healthy aorta mesh already moves gigabytes
// per step, so int32(nBytes) wraps silently past 2 GiB, float-to-int
// conversions drop fractional bytes computed from bandwidth models, and
// signed-to-unsigned conversions turn a negative (underflowed) count
// into an enormous positive one. Conversions of untagged values (site
// indices, loop counters) are out of scope; the compiler already checks
// constants.
func checkLossyConv() Check {
	const id = "lossyconv"
	return Check{
		ID:  id,
		Doc: "lossy integer conversions of byte/halo-count quantities: int32(nBytes) wraps past 2 GiB, float-to-int truncates, signed-to-unsigned flips negatives",
		OnTypedFile: func(f *TypedFile) []Diagnostic {
			info := f.Package.Info
			var diags []Diagnostic
			ast.Inspect(f.AST, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 1 {
					return true
				}
				tv, ok := info.Types[call.Fun]
				if !ok || !tv.IsType() {
					return true
				}
				arg := call.Args[0]
				if av, ok := info.Types[arg]; ok && av.Value != nil {
					return true // constant conversions are compiler-checked
				}
				qty := countQuantity(arg)
				if qty == "" {
					return true
				}
				dst := basicOf(tv.Type)
				src := basicOf(info.TypeOf(arg))
				if dst == nil || src == nil {
					return true
				}
				conv := exprString(call.Fun)
				switch {
				case src.Info()&types.IsFloat != 0 && dst.Info()&types.IsInteger != 0:
					diags = append(diags, diag(f.Fset, call.Pos(), id, SeverityError,
						"%s(%s) truncates a fractional %s count to an integer; round explicitly before converting",
						conv, exprString(arg), qty))
				case src.Info()&types.IsInteger != 0 && dst.Info()&types.IsInteger != 0:
					sw, dw := intWidth(src), intWidth(dst)
					signFlip := src.Info()&types.IsUnsigned == 0 && dst.Info()&types.IsUnsigned != 0
					if dw < sw {
						diags = append(diags, diag(f.Fset, call.Pos(), id, SeverityError,
							"%s(%s) narrows the %s count from %d to %d bits; values past 2^%d wrap silently",
							conv, exprString(arg), qty, sw, dw, dw-1))
					} else if signFlip {
						diags = append(diags, diag(f.Fset, call.Pos(), id, SeverityError,
							"%s(%s) reinterprets the signed %s count as unsigned; a negative value becomes enormous",
							conv, exprString(arg), qty))
					}
				}
				return true
			})
			return diags
		},
	}
}

// countQuantity reports which unit vocabulary ("byte", "halo") tags an
// expression as a data-volume or count quantity, looking through
// arithmetic, conversions and call results (h.Bytes()). Empty when the
// expression carries no such tag.
func countQuantity(e ast.Expr) string {
	dimOf := func(name string) string {
		switch unitDims[flowUnitOf(name)] {
		case "data":
			return "byte"
		case "count":
			return "halo/event"
		}
		return ""
	}
	switch e := e.(type) {
	case *ast.ParenExpr:
		return countQuantity(e.X)
	case *ast.UnaryExpr:
		return countQuantity(e.X)
	case *ast.Ident:
		return dimOf(e.Name)
	case *ast.SelectorExpr:
		return dimOf(e.Sel.Name)
	case *ast.CallExpr:
		// Either a conversion wrapper (float64(nBytes)) or a method
		// whose name carries the unit (h.Bytes()).
		if name := calleeIdentName(e.Fun); name != "" {
			if d := dimOf(name); d != "" {
				return d
			}
		}
		if len(e.Args) == 1 {
			return countQuantity(e.Args[0])
		}
		return ""
	case *ast.BinaryExpr:
		if d := countQuantity(e.X); d != "" {
			return d
		}
		return countQuantity(e.Y)
	}
	return ""
}

// basicOf unwraps a type to its basic kind, looking through named
// types.
func basicOf(t types.Type) *types.Basic {
	if t == nil {
		return nil
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return nil
	}
	return b
}

// intWidth is the bit width of an integer kind on the 64-bit platforms
// this reproduction targets (int and uint are 64-bit).
func intWidth(b *types.Basic) int {
	switch b.Kind() {
	case types.Int8, types.Uint8:
		return 8
	case types.Int16, types.Uint16:
		return 16
	case types.Int32, types.Uint32:
		return 32
	default:
		return 64
	}
}
