// Package analyzers is a stdlib-only static-analysis suite for this
// repository. It enforces the invariants the reproduction's credibility
// rests on — deterministic simulation paths (seeded RNGs, no wall
// clock), disciplined unit suffixes on dimensioned quantities, no exact
// float comparisons, no silently dropped errors, balanced mutexes, and
// joined goroutines — as machine-checked rules instead of convention.
//
// The suite is stdlib-only so the module stays buildable offline with
// no external dependencies. Every analyzer is a Check, and Run is its
// one runner: it parses each file once, type-checks the packages from
// source only when a selected check needs types, and builds the call
// graph and the per-function CFGs only for the checks that read them.
// Every check supports targeted suppression via
//
//	//lint:ignore <check> <reason>
//
// comments on (or immediately above) the flagged line, and pre-existing
// findings can be grandfathered in a baseline file (see Baseline).
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
)

// Severity classifies how a diagnostic should gate CI.
type Severity string

const (
	// SeverityError findings fail the lint run.
	SeverityError Severity = "error"
	// SeverityWarning findings are reported but advisory.
	SeverityWarning Severity = "warning"
)

// Diagnostic is one finding: where, which check, what, how bad.
type Diagnostic struct {
	File     string   `json:"file"`
	Line     int      `json:"line"`
	Col      int      `json:"col"`
	Check    string   `json:"check"`
	Message  string   `json:"message"`
	Severity Severity `json:"severity"`
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Check, d.Message)
}

// File is the syntactic context of one source file.
type File struct {
	Fset *token.FileSet
	AST  *ast.File
	Path string // the loader's rendering of the file's path, used verbatim in diagnostics
	Pkg  string // package name

	// Siblings exposes the other files of the same package so checks
	// can resolve package-local declarations (e.g. whether a called
	// function returns an error).
	Siblings []*ast.File
}

// diag builds a Diagnostic at a position, attributed to the file
// containing it. Every check reports through it.
func diag(fset *token.FileSet, pos token.Pos, check string, sev Severity, format string, args ...any) Diagnostic {
	p := fset.Position(pos)
	return Diagnostic{
		File:     p.Filename,
		Line:     p.Line,
		Col:      p.Column,
		Check:    check,
		Message:  fmt.Sprintf(format, args...),
		Severity: sev,
	}
}

// Check is one analyzer: an ID used in -checks selection, suppression
// comments and baseline entries, a one-line doc string, and exactly one
// run function. Which one is set fixes the check's scope, and with it
// the setup Run pays for: a parse for OnFile, a type-check for the
// rest, a CFG per function for OnFunc, and the call graph for
// OnSurface.
type Check struct {
	ID  string
	Doc string

	OnFile      func(f *File) []Diagnostic          // the AST of one file
	OnTypedFile func(f *TypedFile) []Diagnostic     // one type-checked file
	OnFunc      func(fn *FlowFunc) []Diagnostic     // one function and its CFG
	OnSurface   func(ic *InterContext) []Diagnostic // every loaded package and the call graph
}

// All returns every registered check, sorted by ID.
func All() []Check {
	cs := []Check{
		checkCtxFlow(),
		checkDeterTaint(),
		checkDroppedErr(),
		checkFloatEq(),
		checkGorLeak(),
		checkHotPath(),
		checkLockBalance(),
		checkLockHeld(),
		checkLossyConv(),
		checkNilErr(),
		checkNoDeterm(),
		checkSpanEnd(),
		checkTypeAssert(),
		checkUnitFlow(),
		checkUnitSuffix(),
		checkUseAfterFinal(),
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].ID < cs[j].ID })
	return cs
}

// Select returns the checks matching the given IDs (all of them when
// ids is empty) or an error naming any unknown ID.
func Select(ids []string) ([]Check, error) {
	all := All()
	if len(ids) == 0 {
		return all, nil
	}
	byID := make(map[string]Check, len(all))
	for _, c := range all {
		byID[c.ID] = c
	}
	var out []Check
	for _, id := range ids {
		c, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("analyzers: unknown check %q", id)
		}
		out = append(out, c)
	}
	return out, nil
}

// sortDiags orders diagnostics for stable output: file, line, col,
// check.
func sortDiags(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	})
}
