package analyzers

import (
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoaderCrossPackage type-checks a synthetic two-package module
// under testdata and verifies the loader resolved the module-internal
// import itself: flow.Window's result must be the named type
// unitmod/stat.Micros, with full type information on both sides.
func TestLoaderCrossPackage(t *testing.T) {
	dir := filepath.Join("testdata", "module", "flow")
	pkgs, err := Load([]string{dir})
	if err != nil {
		t.Fatalf("Load(%s): %v", dir, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if p.Path != "unitmod/flow" {
		t.Errorf("import path = %q, want %q", p.Path, "unitmod/flow")
	}
	obj := p.Types.Scope().Lookup("Window")
	if obj == nil {
		t.Fatal("flow.Window not found in package scope")
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		t.Fatalf("Window is %T, want *types.Signature", obj.Type())
	}
	res := sig.Results().At(0).Type()
	if got := res.String(); got != "unitmod/stat.Micros" {
		t.Errorf("Window result type = %q, want %q", got, "unitmod/stat.Micros")
	}
	named, ok := res.(*types.Named)
	if !ok {
		t.Fatalf("result is %T, want *types.Named", res)
	}
	if b, ok := named.Underlying().(*types.Basic); !ok || b.Kind() != types.Float64 {
		t.Errorf("underlying type = %v, want float64", named.Underlying())
	}
}

// TestLoaderSharesDependency loads both synthetic packages in one call
// and verifies stat is type-checked once: the *types.Package inside
// flow's import table is the same object Load returned for stat.
func TestLoaderSharesDependency(t *testing.T) {
	pkgs, err := Load([]string{
		filepath.Join("testdata", "module", "stat"),
		filepath.Join("testdata", "module", "flow"),
	})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("got %d packages, want 2", len(pkgs))
	}
	byPath := map[string]*TypedPackage{}
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	flow := byPath["unitmod/flow"]
	stat := byPath["unitmod/stat"]
	if flow == nil || stat == nil {
		t.Fatalf("missing package: %v", byPath)
	}
	for _, imp := range flow.Types.Imports() {
		if imp.Path() == "unitmod/stat" && imp != stat.Types {
			t.Error("flow imports a different stat instance; loader failed to memoize")
		}
	}
}

func TestSelectAll(t *testing.T) {
	all, err := Select(nil)
	if err != nil {
		t.Fatalf("Select(nil): %v", err)
	}
	if len(all) != 16 {
		t.Errorf("Select(nil) = %d checks, want all 16", len(all))
	}
	for i, c := range all {
		if i > 0 && all[i-1].ID >= c.ID {
			t.Errorf("checks not sorted by ID: %q before %q", all[i-1].ID, c.ID)
		}
		set := 0
		for _, on := range []bool{c.OnFile != nil, c.OnTypedFile != nil, c.OnFunc != nil, c.OnSurface != nil} {
			if on {
				set++
			}
		}
		if set != 1 {
			t.Errorf("%s sets %d run functions, want exactly 1", c.ID, set)
		}
	}
	mixed, err := Select([]string{"floateq", "unitflow", "lockheld", "nilerr"})
	if err != nil {
		t.Fatalf("Select(mixed): %v", err)
	}
	var scopes []string
	for _, c := range mixed {
		scopes = append(scopes, scopeOf(c))
	}
	if got := strings.Join(scopes, ","); got != "file,typed,surface,func" {
		t.Errorf("mixed selection scopes = %s, want file,typed,surface,func", got)
	}
	if _, err := Select([]string{"nonsense"}); err == nil {
		t.Fatal("Select must reject unknown check IDs")
	}
}

// BenchmarkRunAll times one Run of every check over the whole
// repository — the cost CI pays per lint run, dominated by the
// type-check, which Run pays once for every check that needs types.
func BenchmarkRunAll(b *testing.B) {
	pattern := []string{filepath.Join("..", "..", "...")}
	for i := 0; i < b.N; i++ {
		if _, err := Run(pattern, All()); err != nil {
			b.Fatalf("Run: %v", err)
		}
	}
}
