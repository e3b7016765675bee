package analyzers

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// TestHotMarks pins the //lint:hot directive's resolution rules:
// file-level above the package clause, function-level on the line
// above a declaration or inside its doc comment.
func TestHotMarks(t *testing.T) {
	src := `//lint:hot
package p

func everyFn() {}
`
	fset := token.NewFileSet()
	af, err := parser.ParseFile(fset, "hot.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	m := hotMarksOf(&File{Fset: fset, AST: af, Path: "hot.go", Pkg: "p"})
	if !m.fileHot {
		t.Error("directive above the package clause must mark the whole file")
	}

	src2 := `package p

//lint:hot
func marked() {}

// documented is described here.
//
//lint:hot
func documented() {}

func unmarked() {}
`
	af2, err := parser.ParseFile(fset, "hot2.go", src2, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	m2 := hotMarksOf(&File{Fset: fset, AST: af2, Path: "hot2.go", Pkg: "p"})
	if m2.fileHot {
		t.Error("function-level directives must not mark the file")
	}
	for _, d := range af2.Decls {
		fd := d.(*ast.FuncDecl)
		want := fd.Name.Name != "unmarked"
		if got := m2.hot(fd, fset); got != want {
			t.Errorf("hot(%s) = %v, want %v", fd.Name.Name, got, want)
		}
	}
}
