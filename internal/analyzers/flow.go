package analyzers

import (
	"go/ast"
	"go/token"
	"strings"
)

// This file is the per-function scope: an OnFunc check sees one
// function at a time — declaration or literal — with type information,
// the CFG, and the hot-path annotation state resolved.

// HotDirective is the comment directive marking hot-path code:
// `//lint:hot` above the package clause marks every function in the
// file, above (or in the doc comment of) a function declaration marks
// that function. The hotpath check and the perf-budget tool both key
// off it.
const HotDirective = "lint:hot"

// FlowFunc is one function under flow-sensitive analysis.
type FlowFunc struct {
	File *TypedFile
	Decl *ast.FuncDecl // nil for a literal
	Lit  *ast.FuncLit  // nil for a declaration
	Body *ast.BlockStmt
	G    *CFG
	Hot  bool // function carries (or inherits) a //lint:hot mark
}

// Name renders the function's name for messages: "Step",
// "(*Sparse).Step", or "func literal".
func (fn *FlowFunc) Name() string {
	if fn.Decl == nil {
		return "func literal"
	}
	return funcDeclName(fn.Decl)
}

// funcDeclName renders a declaration as "Name" or "(Recv).Name" /
// "(*Recv).Name".
func funcDeclName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	recv := d.Recv.List[0].Type
	return "(" + exprString(recv) + ")." + d.Name.Name
}

// hotMarks is the resolved //lint:hot annotation state of one file.
type hotMarks struct {
	fileHot bool
	lines   map[int]bool // lines carrying a directive
}

// hotMarksOf scans a file's comments for //lint:hot directives.
func hotMarksOf(f *File) hotMarks {
	m := hotMarks{lines: map[int]bool{}}
	for _, cg := range f.AST.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			if strings.TrimSpace(text) != HotDirective {
				continue
			}
			if c.End() <= f.AST.Package {
				m.fileHot = true
				continue
			}
			m.lines[f.Fset.Position(c.Pos()).Line] = true
		}
	}
	return m
}

// hot reports whether a declaration is marked hot: the file is hot, a
// directive sits on the line above the declaration, or one sits inside
// its doc comment.
func (m hotMarks) hot(d *ast.FuncDecl, fset *token.FileSet) bool {
	if m.fileHot {
		return true
	}
	if m.lines[fset.Position(d.Pos()).Line-1] {
		return true
	}
	if d.Doc != nil {
		start := fset.Position(d.Doc.Pos()).Line
		end := fset.Position(d.Doc.End()).Line
		for l := start; l <= end; l++ {
			if m.lines[l] {
				return true
			}
		}
	}
	return false
}

// flowFuncsOf builds one FlowFunc per function body in a file:
// declarations first, then every literal (each literal is analyzed as
// its own function, inheriting the enclosing declaration's hot mark).
func flowFuncsOf(f *TypedFile) []*FlowFunc {
	marks := hotMarksOf(&f.File)
	var fns []*FlowFunc
	addLits := func(root ast.Node, hot bool) {
		ast.Inspect(root, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				fns = append(fns, &FlowFunc{
					File: f, Lit: lit, Body: lit.Body,
					G: BuildCFG(lit.Body), Hot: hot,
				})
			}
			return true
		})
	}
	for _, decl := range f.AST.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Body == nil {
				continue
			}
			hot := marks.hot(d, f.Fset)
			fns = append(fns, &FlowFunc{
				File: f, Decl: d, Body: d.Body,
				G: BuildCFG(d.Body), Hot: hot,
			})
			addLits(d.Body, hot)
		case *ast.GenDecl:
			// Literals in var initializers.
			addLits(d, marks.fileHot)
		}
	}
	return fns
}

// inspectOwn walks a node but does not descend into function literals:
// a literal's body belongs to its own FlowFunc frame. The literal node
// itself is still visited, so checks can see the closure being built.
func inspectOwn(n ast.Node, visit func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok && m != n {
			visit(m)
			return false
		}
		return visit(m)
	})
}

// lineOf returns the source line of a position.
func (fn *FlowFunc) lineOf(pos token.Pos) int {
	return fn.File.Fset.Position(pos).Line
}
