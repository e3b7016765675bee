package analyzers

import (
	"strings"
)

// BadIgnoreID is the pseudo-check ID used for malformed suppression
// comments, so an ineffective //lint:ignore never fails silently.
const BadIgnoreID = "badignore"

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	line   int
	checks map[string]bool // check IDs covered; {"*": true} covers all
	reason string
}

// parseIgnores extracts the suppression directives of a file and emits
// badignore diagnostics for malformed ones (missing check list or
// missing reason — an ignore without a reason is a convention the suite
// exists to prevent).
func parseIgnores(f *File) ([]ignoreDirective, []Diagnostic) {
	var dirs []ignoreDirective
	var diags []Diagnostic
	for _, cg := range f.AST.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimPrefix(text, "/*")
			text = strings.TrimSuffix(text, "*/")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, "lint:ignore") {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(text, "lint:ignore"))
			fields := strings.Fields(rest)
			if len(fields) < 2 {
				diags = append(diags, diag(f.Fset, c.Pos(), BadIgnoreID, SeverityError,
					"malformed suppression %q: want //lint:ignore <check>[,<check>] <reason>", c.Text))
				continue
			}
			checks := map[string]bool{}
			for _, id := range strings.Split(fields[0], ",") {
				checks[strings.TrimSpace(id)] = true
			}
			dirs = append(dirs, ignoreDirective{
				line:   f.Fset.Position(c.Pos()).Line,
				checks: checks,
				reason: strings.Join(fields[1:], " "),
			})
		}
	}
	return dirs, diags
}

// suppressed reports whether an ignore directive on the diagnostic's
// line or the line immediately above covers it — the two placements a
// human reads as "about this statement".
func suppressed(d Diagnostic, dirs []ignoreDirective) bool {
	for _, dir := range dirs {
		if dir.line != d.Line && dir.line != d.Line-1 {
			continue
		}
		if dir.checks["*"] || dir.checks[d.Check] {
			return true
		}
	}
	return false
}
