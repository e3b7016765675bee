package analyzers

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Result is one lint run over a set of packages.
type Result struct {
	Diags []Diagnostic // suppressed findings already filtered out
	Files int          // number of files analyzed
}

// Run lints the directories matched by the given package patterns. A
// pattern is either a directory path or a path ending in "/..." for a
// recursive walk (the familiar go-tool spelling). Test files and
// testdata, vendor, hidden and underscore directories are skipped:
// tests legitimately use wall clocks, exact comparisons against golden
// values and discarded errors, and testdata holds intentionally dirty
// fixtures.
func Run(patterns []string, checks []Check) (Result, error) {
	return newLoader().run(patterns, checks)
}

// run is Run over a caller-owned loader, so successive runs share its
// parsed and type-checked packages.
func (l *loader) run(patterns []string, checks []Check) (Result, error) {
	dirs, err := expandPatterns(patterns)
	if err != nil {
		return Result{}, err
	}
	var typed, cfg, graph bool
	for _, c := range checks {
		typed = typed || c.OnFile == nil
		cfg = cfg || c.OnFunc != nil
		graph = graph || c.OnSurface != nil
	}

	var pkgs []*TypedPackage
	timeStage("parse", func() {
		for _, dir := range dirs {
			var p *TypedPackage
			if p, err = l.parse(dir); err != nil {
				return
			}
			pkgs = append(pkgs, p)
		}
	})
	if err != nil {
		return Result{}, err
	}
	if typed {
		timeStage("typecheck", func() {
			for _, p := range pkgs {
				if err = l.typeCheck(p); err != nil {
					return
				}
			}
		})
		if err != nil {
			return Result{}, err
		}
	}

	var res Result
	var diags []Diagnostic
	ignores := map[string][]ignoreDirective{} // by file path; keys are the surface
	for _, p := range pkgs {
		for _, f := range p.Files {
			res.Files++
			directives, bad := parseIgnores(&f.File)
			ignores[f.Path] = directives
			diags = append(diags, bad...)
			for _, c := range checks {
				switch {
				case c.OnFile != nil:
					timeCheck(c.ID, func() { diags = append(diags, c.OnFile(&f.File)...) })
				case c.OnTypedFile != nil:
					timeCheck(c.ID, func() { diags = append(diags, c.OnTypedFile(f)...) })
				}
			}
			if !cfg {
				continue
			}
			var fns []*FlowFunc
			timeStage("cfg", func() { fns = flowFuncsOf(f) })
			for _, fn := range fns {
				for _, c := range checks {
					if c.OnFunc != nil {
						timeCheck(c.ID, func() { diags = append(diags, c.OnFunc(fn)...) })
					}
				}
			}
		}
	}
	if graph {
		var ic *InterContext
		timeStage("callgraph", func() { ic = newInterContext(pkgs) })
		for _, c := range checks {
			if c.OnSurface != nil {
				timeCheck(c.ID, func() { diags = append(diags, c.OnSurface(ic)...) })
			}
		}
	}

	// One suppression pass for every scope. Whole-surface checks may walk
	// dependency packages; their findings there are dropped, since those
	// files were not requested.
	for _, d := range diags {
		directives, ok := ignores[d.File]
		if ok && !suppressed(d, directives) {
			res.Diags = append(res.Diags, d)
		}
	}
	sortDiags(res.Diags)
	return res, nil
}

// expandPatterns resolves patterns into a sorted, de-duplicated list of
// directories containing at least one non-test Go file.
func expandPatterns(patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] && hasGoFiles(dir) {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, p := range patterns {
		if rest, ok := strings.CutSuffix(p, "..."); ok {
			root := filepath.Clean(strings.TrimSuffix(rest, "/"))
			if root == "" {
				root = "."
			}
			err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				if skipDir(d.Name()) && path != root {
					return filepath.SkipDir
				}
				add(path)
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("analyzers: walking %s: %w", p, err)
			}
			continue
		}
		info, err := os.Stat(p)
		if err != nil {
			return nil, fmt.Errorf("analyzers: %w", err)
		}
		if !info.IsDir() {
			return nil, fmt.Errorf("analyzers: pattern %q is not a directory", p)
		}
		add(filepath.Clean(p))
	}
	sort.Strings(dirs)
	return dirs, nil
}

// skipDir reports whether a directory subtree is outside the lint
// surface.
func skipDir(name string) bool {
	return name == "testdata" || name == "vendor" ||
		strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

// hasGoFiles reports whether dir directly contains a lintable Go file.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && lintableFile(e.Name()) {
			return true
		}
	}
	return false
}

// lintableFile reports whether a file name is in scope.
func lintableFile(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}
