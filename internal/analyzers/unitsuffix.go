package analyzers

import (
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// unitSuffixes maps the identifier suffixes this codebase uses for
// dimensioned quantities to a canonical unit. Two identifiers conflict
// when both carry a recognized suffix and the canonical units differ —
// that covers cross-dimension mistakes (seconds + bytes) and
// cross-scale mistakes within a dimension (seconds + microseconds),
// which are equally fatal to a performance model.
var unitSuffixes = map[string]string{
	// time
	"S": "s", "Sec": "s", "Secs": "s", "Seconds": "s",
	"MS": "ms", "Millis": "ms",
	"US": "us", "Micros": "us",
	"NS": "ns", "Nanos": "ns",
	"Hours": "h",
	// data volume
	"Bytes": "B", "Bits": "bit",
	"KB": "kB", "MB": "MB", "GB": "GB",
	"KiB": "KiB", "MiB": "MiB", "GiB": "GiB",
	// data rate
	"Bps": "B/s", "KBps": "kB/s", "MBps": "MB/s", "GBps": "GB/s",
	// money
	"USD": "USD", "Cents": "cents",
	// frequency
	"Hz": "Hz", "KHz": "kHz", "MHz": "MHz", "GHz": "GHz",
	// compute throughput
	"FLOPS": "FLOPS", "GFLOPS": "GFLOPS", "MFLOPS": "MFLOPS",
	"FLUPS": "FLUPS", "MFLUPS": "MFLUPS", "GFLUPS": "GFLUPS",
}

// suffixesByLength is unitSuffixes' keys, longest first, so MFLUPS
// matches before S.
var suffixesByLength = func() []string {
	keys := make([]string, 0, len(unitSuffixes))
	for k := range unitSuffixes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if len(keys[i]) != len(keys[j]) {
			return len(keys[i]) > len(keys[j])
		}
		return keys[i] < keys[j]
	})
	return keys
}()

// unitOf extracts the canonical unit of an identifier name from its
// suffix, or "" when the name carries none. The suffix must sit on a
// camel-case boundary: ComputeS and latencyUS match, MFLUPS does not
// match S (the preceding rune is upper case, so S is part of a larger
// word), and Steps does not match anything (lower-case tail).
func unitOf(name string) string {
	return suffixUnit(name, suffixesByLength, unitSuffixes)
}

// suffixUnit implements the camel-boundary suffix lookup of unitOf for
// an arbitrary suffix table (the typed unitflow check extends the
// syntactic vocabulary without changing it).
func suffixUnit(name string, suffixes []string, units map[string]string) string {
	for _, suf := range suffixes {
		if !strings.HasSuffix(name, suf) {
			continue
		}
		rest := name[:len(name)-len(suf)]
		if rest == "" {
			return units[suf]
		}
		last := rest[len(rest)-1]
		if last >= 'a' && last <= 'z' || last >= '0' && last <= '9' {
			return units[suf]
		}
	}
	return ""
}

// unitWords spots unit vocabulary in a doc comment: a field documented
// as carrying seconds or dollars should say so in its name, where
// arithmetic can be audited, not only in prose.
var unitWords = regexp.MustCompile(`(?i)(^|[\s(])(seconds|microseconds|milliseconds|nanoseconds|bytes|gigabytes|megabytes|dollars|usd|mflups|gflops|flop/s|hertz|hz|[kmg]i?b/s|b/s|µs)([\s,.;:)]|$)`)

// comparableOps are the binary operators whose operands must share a
// unit. Multiplication and division legitimately combine units, so
// only additive and ordering/equality operators are constrained.
var comparableOps = map[token.Token]bool{
	token.ADD: true, token.SUB: true,
	token.LSS: true, token.GTR: true, token.LEQ: true, token.GEQ: true,
	token.EQL: true, token.NEQ: true,
}

// checkUnitSuffix flags (a) additive or comparison expressions whose
// operands carry conflicting unit suffixes and (b) exported float
// struct fields whose doc comment names a unit the field name does not
// carry.
func checkUnitSuffix() Check {
	const id = "unitsuffix"
	return Check{
		ID:  id,
		Doc: "unit-suffix discipline: no arithmetic across conflicting unit suffixes; documented units must appear in exported field names",
		OnFile: func(f *File) []Diagnostic {
			var diags []Diagnostic

			ast.Inspect(f.AST, func(n ast.Node) bool {
				be, ok := n.(*ast.BinaryExpr)
				if !ok || !comparableOps[be.Op] {
					return true
				}
				lu, ln := operandUnit(be.X)
				ru, rn := operandUnit(be.Y)
				if lu != "" && ru != "" && lu != ru {
					diags = append(diags, diag(f.Fset, be.OpPos, id, SeverityError,
						"%q mixes units: %s is in %s but %s is in %s", be.Op, ln, lu, rn, ru))
				}
				return true
			})

			ast.Inspect(f.AST, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok || !ts.Name.IsExported() {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				for _, field := range st.Fields.List {
					if !isFloatType(field.Type) {
						continue
					}
					doc := fieldCommentText(field)
					if doc == "" {
						continue
					}
					m := unitWords.FindStringSubmatch(doc)
					if m == nil {
						continue
					}
					for _, name := range field.Names {
						if !name.IsExported() || unitOf(name.Name) != "" {
							continue
						}
						diags = append(diags, diag(f.Fset, name.Pos(), id, SeverityError,
							"exported field %s.%s is documented in %q but its name carries no unit suffix",
							ts.Name.Name, name.Name, strings.TrimSpace(m[2])))
					}
				}
				return true
			})
			return diags
		},
	}
}

// operandUnit returns the canonical unit and the rendered name of an
// operand when it is a plain identifier or selector chain with a
// recognized suffix.
func operandUnit(e ast.Expr) (unit, name string) {
	switch e := e.(type) {
	case *ast.Ident:
		return unitOf(e.Name), e.Name
	case *ast.SelectorExpr:
		return unitOf(e.Sel.Name), exprString(e)
	case *ast.ParenExpr:
		return operandUnit(e.X)
	}
	return "", ""
}

// isFloatType reports whether a type expression is float64 or float32.
func isFloatType(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && (id.Name == "float64" || id.Name == "float32")
}

// fieldCommentText joins a struct field's doc and line comments.
func fieldCommentText(field *ast.Field) string {
	var parts []string
	if field.Doc != nil {
		parts = append(parts, field.Doc.Text())
	}
	if field.Comment != nil {
		parts = append(parts, field.Comment.Text())
	}
	return strings.Join(parts, " ")
}
