// Package abspath has one syntactic (floateq) and one typed
// (typeassert) finding in the same file, so a run over an absolute
// pattern can show that both name the file alike.
package abspath

func same(a, b float64) bool {
	return a == b
}

func name(v any) string {
	return v.(string)
}
