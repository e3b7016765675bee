package analyzers

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// This file is the suite's loader: a stdlib-only front end that parses
// every package on the lint surface once and, when a check needs
// types, builds full go/types information for it. It resolves
// standard-library imports through the source importer
// (importer.ForCompiler(fset, "source", nil)) and module-internal
// imports itself, by walking up to go.mod, mapping the import path to a
// directory and type-checking that directory recursively — the piece
// the source importer cannot do in module mode.

// TypedPackage is one loaded package. Path, Types and Info are set
// once it is type-checked; a parse-only run leaves them empty.
type TypedPackage struct {
	Dir   string // directory as rendered, the prefix of diagnostic paths
	Path  string // import path within the enclosing module
	Fset  *token.FileSet
	Files []*TypedFile
	Types *types.Package
	Info  *types.Info

	abs string // absolute directory, the loader's memo key
}

// TypedFile is the per-file context handed to checks that need types:
// the syntactic File plus the type information of its package.
type TypedFile struct {
	File
	Package *TypedPackage
}

// Load type-checks the directories matched by the given package
// patterns (same pattern language and skip rules as Run) and returns
// one TypedPackage per directory, sorted by directory.
func Load(patterns []string) ([]*TypedPackage, error) {
	dirs, err := expandPatterns(patterns)
	if err != nil {
		return nil, err
	}
	l := newLoader()
	var pkgs []*TypedPackage
	for _, dir := range dirs {
		p, err := l.load(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// module is one enclosing module: its root directory and module path.
type module struct {
	root string // absolute
	path string
}

// loader memoizes parsed and type-checked packages across one Load or
// Run call, so each file is parsed once and shared dependencies are
// checked once.
type loader struct {
	fset     *token.FileSet
	std      types.Importer
	pkgs     map[string]*TypedPackage // by absolute directory
	checking map[string]bool          // type-checks in progress, for cycle detection
	mods     map[string]*module       // by absolute directory
}

func newLoader() *loader {
	fset := token.NewFileSet()
	return &loader{
		fset:     fset,
		std:      importer.ForCompiler(fset, "source", nil),
		pkgs:     map[string]*TypedPackage{},
		checking: map[string]bool{},
		mods:     map[string]*module{},
	}
}

// moduleFor finds the module enclosing an absolute directory by walking
// up to the nearest go.mod.
func (l *loader) moduleFor(abs string) (*module, error) {
	if m, ok := l.mods[abs]; ok {
		return m, nil
	}
	data, err := os.ReadFile(filepath.Join(abs, "go.mod"))
	if err == nil {
		path := modulePath(data)
		if path == "" {
			return nil, fmt.Errorf("analyzers: %s has no module line", filepath.Join(abs, "go.mod"))
		}
		m := &module{root: abs, path: path}
		l.mods[abs] = m
		return m, nil
	}
	parent := filepath.Dir(abs)
	if parent == abs {
		return nil, fmt.Errorf("analyzers: no go.mod found above %s", abs)
	}
	m, err := l.moduleFor(parent)
	if err != nil {
		return nil, err
	}
	l.mods[abs] = m
	return m, nil
}

// modulePath extracts the module path from go.mod contents.
func modulePath(gomod []byte) string {
	sc := bufio.NewScanner(bytes.NewReader(gomod))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// load parses and type-checks one directory.
func (l *loader) load(dir string) (*TypedPackage, error) {
	p, err := l.parse(dir)
	if err != nil {
		return nil, err
	}
	if err := l.typeCheck(p); err != nil {
		return nil, err
	}
	return p, nil
}

// parse reads the lintable files of one directory.
func (l *loader) parse(dir string) (*TypedPackage, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("analyzers: %w", err)
	}
	if p, ok := l.pkgs[abs]; ok {
		return p, nil
	}

	// Diagnostics carry the rendered path verbatim, so prefer a
	// working-directory-relative rendering, also for an absolute pattern
	// or a package first reached through the importer (which resolves by
	// absolute path): workflow annotations and baselines need paths that
	// mean something outside this machine.
	display := dir
	if filepath.IsAbs(display) {
		if wd, err := os.Getwd(); err == nil {
			if rel, err := filepath.Rel(wd, display); err == nil && rel != ".." &&
				!strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
				display = rel
			}
		}
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analyzers: %w", err)
	}
	p := &TypedPackage{Dir: display, Fset: l.fset, abs: abs}
	var asts []*ast.File
	for _, e := range entries {
		if e.IsDir() || !lintableFile(e.Name()) {
			continue
		}
		path := filepath.Join(display, e.Name())
		af, err := parser.ParseFile(l.fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analyzers: %w", err)
		}
		asts = append(asts, af)
		p.Files = append(p.Files, &TypedFile{
			File:    File{Fset: l.fset, AST: af, Path: path, Pkg: af.Name.Name},
			Package: p,
		})
	}
	if len(asts) == 0 {
		return nil, fmt.Errorf("analyzers: no lintable Go files in %s", dir)
	}
	for _, f := range p.Files {
		f.Siblings = asts
	}
	l.pkgs[abs] = p
	return p, nil
}

// typeCheck fills in a parsed package's type information, checking its
// module-internal imports first.
func (l *loader) typeCheck(p *TypedPackage) error {
	if p.Types != nil {
		return nil
	}
	if l.checking[p.abs] {
		return fmt.Errorf("analyzers: import cycle through %s", p.Dir)
	}
	l.checking[p.abs] = true
	defer delete(l.checking, p.abs)

	mod, err := l.moduleFor(p.abs)
	if err != nil {
		return err
	}
	rel, err := filepath.Rel(mod.root, p.abs)
	if err != nil {
		return fmt.Errorf("analyzers: %w", err)
	}
	importPath := mod.path
	if rel != "." {
		importPath = mod.path + "/" + filepath.ToSlash(rel)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: &modImporter{l: l, mod: mod}}
	tpkg, err := conf.Check(importPath, l.fset, p.Files[0].Siblings, info)
	if err != nil {
		return fmt.Errorf("analyzers: type-checking %s: %w", p.Dir, err)
	}
	p.Path, p.Types, p.Info = importPath, tpkg, info
	return nil
}

// modImporter resolves the imports of one package: module-internal
// paths map to directories under the module root and are type-checked
// from source by the loader; everything else is delegated to the
// standard-library source importer.
type modImporter struct {
	l   *loader
	mod *module
}

func (m *modImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == m.mod.path {
		p, err := m.l.load(m.mod.root)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	if sub, ok := strings.CutPrefix(path, m.mod.path+"/"); ok {
		p, err := m.l.load(filepath.Join(m.mod.root, filepath.FromSlash(sub)))
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return m.l.std.Import(path)
}
