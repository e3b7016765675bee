package analyzers

import (
	"go/ast"
	"go/types"
	"strings"
)

// checkDeterTaint is DESIGN.md §6 as a machine-checked property:
// nondeterministic values must never reach the inputs that make runs
// reproducible. Sources of nondeterminism:
//
//   - time.Now and time.Since (wall clock);
//   - the global math/rand functions (process-seeded since Go 1.20,
//     different every run) — a rand.Rand built from an explicit
//     rand.NewSource(seed) is fine;
//   - map iteration order: the key and value variables of a range over
//     a map.
//
// Deterministic sinks, where a tainted value is a reproducibility bug:
//
//   - any parameter named "seed" (or ending in "Seed") of a loaded
//     function — the convention every constructor in this module uses
//     (obs.NewTracer, cluster.NewRing, span and ring hashing);
//   - math/rand.NewSource / rand.New seed arguments;
//   - writes to struct fields named "seed"/"Seed"-suffixed, including
//     composite-literal initializers;
//   - consistent-hash placement: the key arguments of Owner,
//     Successors, and Add on a type named Ring — map-ordered or
//     clock-derived keys make placement differ across runs.
//
// Taint flows forward through assignments inside each function and
// across calls via memoized summaries: a function whose return derives
// from a source taints its callers' results; a function whose
// parameter reaches a sink turns its call sites into sinks at that
// position.
func checkDeterTaint() Check {
	const id = "detertaint"
	return Check{
		ID: id,
		Doc: "nondeterminism (wall clock, global math/rand, map range order) must not flow into " +
			"deterministic sinks (seeds, ring placement keys)",
		OnSurface: func(ic *InterContext) []Diagnostic {
			c := &deterTaintCheck{ic: ic, id: id, memo: map[*CallNode]*taintSummary{}}
			for _, n := range ic.Graph.Nodes() {
				if n.External() || !ic.onSurface(n.posOf()) {
					continue
				}
				c.summarize(n)
			}
			return c.diags
		},
	}
}

// taintSummary is one function's interprocedural behavior.
type taintSummary struct {
	// returnsTainted: some return value derives from a source.
	returnsTainted bool
	// sinkParams: parameter indices that reach a sink inside the
	// function (directly or through callees).
	sinkParams map[int]bool
}

type deterTaintCheck struct {
	ic    *InterContext
	id    string
	memo  map[*CallNode]*taintSummary // nil entry = in progress (cycle cut)
	diags []Diagnostic
}

// sourceCall classifies a resolved callee as a nondeterminism source,
// returning a human label.
func sourceCall(fn *types.Func) (string, bool) {
	switch qualifiedName(fn) {
	case "time.Now":
		return "time.Now", true
	case "time.Since":
		return "time.Since", true
	}
	// Global math/rand consumers: package-level functions drawing from
	// the process-seeded global source. Constructors that only wrap an
	// explicit source are not sources themselves.
	if pkg := fn.Pkg(); pkg != nil && pkg.Path() == "math/rand" {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
			switch fn.Name() {
			case "New", "NewSource", "NewZipf":
				return "", false
			}
			return "global math/rand." + fn.Name(), true
		}
	}
	return "", false
}

// seedParamName reports whether a parameter name marks a deterministic
// seed by this module's convention.
func seedParamName(name string) bool {
	return name == "seed" || strings.HasSuffix(name, "Seed")
}

// seedFieldName is the field-write analogue.
func seedFieldName(name string) bool {
	return name == "seed" || name == "Seed" || strings.HasSuffix(name, "Seed")
}

// externalSinkParams is the explicit table for body-less callees whose
// parameter names the loader may not surface.
func externalSinkParams(fn *types.Func) map[int]bool {
	switch qualifiedName(fn) {
	case "math/rand.NewSource":
		return map[int]bool{0: true}
	}
	return nil
}

// ringPlacementSink reports whether a method is a consistent-hash
// placement sink: Owner/Successors/Add on a type named Ring. The match
// is structural (type name, not package path) so the property holds in
// fixtures and future rings alike.
func ringPlacementSink(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	switch fn.Name() {
	case "Owner", "Successors", "Add":
	default:
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Ring"
}

// sinkPositions returns the sink parameter indices of a callee, with a
// label describing the sink kind, combining the naming convention, the
// explicit external table, ring placement, and the callee's own
// summary.
func (c *deterTaintCheck) sinkPositions(callee *CallNode) (map[int]bool, string) {
	positions := map[int]bool{}
	label := "seed"
	if callee.Obj != nil {
		if ext := externalSinkParams(callee.Obj); ext != nil {
			for i := range ext {
				positions[i] = true
			}
		}
		if ringPlacementSink(callee.Obj) {
			positions[0] = true
			label = "ring placement key"
		}
	}
	if sig := signatureOf(callee); sig != nil {
		params := sig.Params()
		for i := 0; i < params.Len(); i++ {
			if seedParamName(params.At(i).Name()) {
				positions[i] = true
			}
		}
	}
	if !callee.External() {
		if sum := c.summarize(callee); sum != nil {
			for i := range sum.sinkParams {
				positions[i] = true
			}
		}
	}
	return positions, label
}

// summarize computes (memoized) one node's taint summary, emitting
// diagnostics for source-to-sink flows inside its body as a side
// effect. External nodes summarize from the classification tables.
func (c *deterTaintCheck) summarize(n *CallNode) *taintSummary {
	if sum, ok := c.memo[n]; ok {
		if sum == nil {
			return &taintSummary{} // cycle: assume clean this round
		}
		return sum
	}
	c.memo[n] = nil
	sum := c.computeSummary(n)
	c.memo[n] = sum
	return sum
}

func (c *deterTaintCheck) computeSummary(n *CallNode) *taintSummary {
	sum := &taintSummary{sinkParams: map[int]bool{}}
	if n.External() {
		if _, ok := sourceCall(n.Obj); ok {
			sum.returnsTainted = true
		}
		return sum
	}

	info := n.File.Package.Info
	st := &taintState{c: c, n: n, info: info, tainted: map[types.Object]bool{}, why: map[types.Object]string{}}

	// Forward dataflow to fixpoint: map-range variables and any
	// assignment whose right side is tainted grow the set.
	for changed := true; changed; {
		changed = false
		inspectOwnBody(n, func(node ast.Node) bool {
			switch node := node.(type) {
			case *ast.RangeStmt:
				if tv, ok := info.Types[node.X]; ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						for _, v := range []ast.Expr{node.Key, node.Value} {
							if id, ok := v.(*ast.Ident); ok && id.Name != "_" {
								if obj := info.Defs[id]; obj != nil && !st.tainted[obj] {
									st.tainted[obj] = true
									st.why[obj] = "map range order"
									changed = true
								}
							}
						}
					}
				}
			case *ast.AssignStmt:
				if st.propagateAssign(node) {
					changed = true
				}
			case *ast.GenDecl:
				for _, spec := range node.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok && st.propagateValueSpec(vs) {
						changed = true
					}
				}
			}
			return true
		})
	}

	// Sinks: call arguments and seed-field writes.
	inspectOwnBody(n, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.CallExpr:
			c.checkCallSinks(st, node, sum)
		case *ast.AssignStmt:
			c.checkFieldSinks(st, node, sum)
		case *ast.CompositeLit:
			c.checkLiteralSinks(st, node, sum)
		case *ast.ReturnStmt:
			for _, r := range node.Results {
				if _, ok := st.taintedExpr(r); ok {
					sum.returnsTainted = true
				}
			}
		}
		return true
	})
	return sum
}

// taintState is the per-function dataflow state.
type taintState struct {
	c       *deterTaintCheck
	n       *CallNode
	info    *types.Info
	tainted map[types.Object]bool
	why     map[types.Object]string
}

// taintedExpr reports whether an expression derives from a source,
// with a label naming the source kind.
func (st *taintState) taintedExpr(e ast.Expr) (string, bool) {
	if e == nil {
		return "", false
	}
	why := ""
	ast.Inspect(e, func(node ast.Node) bool {
		if why != "" {
			return false
		}
		switch node := node.(type) {
		case *ast.FuncLit:
			return false
		case *ast.Ident:
			if obj := st.info.Uses[node]; obj != nil && st.tainted[obj] {
				why = st.why[obj]
				return false
			}
		case *ast.CallExpr:
			if w, ok := st.callTaint(node); ok {
				why = w
				return false
			}
		}
		return true
	})
	return why, why != ""
}

// callTaint classifies one call expression's result as tainted: a
// direct source, or a loaded callee whose summary returns taint.
func (st *taintState) callTaint(call *ast.CallExpr) (string, bool) {
	for _, e := range st.n.Out {
		if e.Site != call {
			continue
		}
		if e.Callee.Obj != nil {
			if why, ok := sourceCall(e.Callee.Obj); ok {
				return why, true
			}
		}
		if !e.Callee.External() {
			if sum := st.c.summarize(e.Callee); sum.returnsTainted {
				return "nondeterministic result of " + e.Callee.Name(), true
			}
		}
	}
	return "", false
}

// propagateAssign taints the assignment's targets when any right side
// is tainted. Multi-value forms (x, y := f()) taint every target —
// coarse but conservative.
func (st *taintState) propagateAssign(as *ast.AssignStmt) bool {
	rhsWhy := ""
	for _, r := range as.Rhs {
		if why, ok := st.taintedExpr(r); ok {
			rhsWhy = why
			break
		}
	}
	if rhsWhy == "" {
		return false
	}
	changed := false
	for _, l := range as.Lhs {
		id, ok := l.(*ast.Ident)
		if !ok {
			continue
		}
		obj := st.info.Defs[id]
		if obj == nil {
			obj = st.info.Uses[id]
		}
		if obj != nil && !st.tainted[obj] {
			st.tainted[obj] = true
			st.why[obj] = rhsWhy
			changed = true
		}
	}
	return changed
}

// propagateValueSpec is propagateAssign for var declarations.
func (st *taintState) propagateValueSpec(vs *ast.ValueSpec) bool {
	changed := false
	for i, name := range vs.Names {
		if i >= len(vs.Values) {
			break
		}
		why, ok := st.taintedExpr(vs.Values[i])
		if !ok {
			continue
		}
		if obj := st.info.Defs[name]; obj != nil && !st.tainted[obj] {
			st.tainted[obj] = true
			st.why[obj] = why
			changed = true
		}
	}
	return changed
}

// paramIndex resolves an expression to a parameter index of the node
// when the expression mentions exactly that parameter.
func (st *taintState) paramIndex(e ast.Expr) (int, bool) {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return 0, false
	}
	obj := st.info.Uses[id]
	if obj == nil {
		return 0, false
	}
	sig := signatureOf(st.n)
	if sig == nil {
		return 0, false
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if params.At(i) == obj {
			return i, true
		}
	}
	return 0, false
}

// checkCallSinks flags tainted arguments in sink positions of one call
// site, and records parameter-to-sink flow for the summary.
func (c *deterTaintCheck) checkCallSinks(st *taintState, call *ast.CallExpr, sum *taintSummary) {
	seen := map[*CallNode]bool{}
	for _, e := range st.n.Out {
		if e.Site != call || seen[e.Callee] {
			continue
		}
		seen[e.Callee] = true
		positions, label := c.sinkPositions(e.Callee)
		for i := range positions {
			if i >= len(call.Args) {
				continue
			}
			arg := call.Args[i]
			if why, ok := st.taintedExpr(arg); ok {
				c.diags = append(c.diags, diag(c.ic.fset, arg.Pos(), c.id, SeverityError,
					"%s flows into the %s argument of %s in %s; deterministic outputs require a deterministic input here",
					why, label, e.Callee.Name(), st.n.Name()))
			} else if j, ok := st.paramIndex(arg); ok {
				sum.sinkParams[j] = true
			}
		}
	}
}

// checkFieldSinks flags tainted writes to seed-named struct fields.
func (c *deterTaintCheck) checkFieldSinks(st *taintState, as *ast.AssignStmt, sum *taintSummary) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, l := range as.Lhs {
		sel, ok := ast.Unparen(l).(*ast.SelectorExpr)
		if !ok || !seedFieldName(sel.Sel.Name) {
			continue
		}
		if s, ok := st.info.Selections[sel]; !ok || s.Kind() != types.FieldVal {
			continue
		}
		if why, ok := st.taintedExpr(as.Rhs[i]); ok {
			c.diags = append(c.diags, diag(c.ic.fset, as.Rhs[i].Pos(), c.id, SeverityError,
				"%s written to seed field %s in %s; seeds must be deterministic",
				why, exprString(sel), st.n.Name()))
		} else if j, ok := st.paramIndex(as.Rhs[i]); ok {
			sum.sinkParams[j] = true
		}
	}
}

// checkLiteralSinks is checkFieldSinks for composite-literal
// initializers (Config{Seed: time.Now().UnixNano()}).
func (c *deterTaintCheck) checkLiteralSinks(st *taintState, lit *ast.CompositeLit, sum *taintSummary) {
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok || !seedFieldName(key.Name) {
			continue
		}
		if why, ok := st.taintedExpr(kv.Value); ok {
			c.diags = append(c.diags, diag(c.ic.fset, kv.Value.Pos(), c.id, SeverityError,
				"%s initializes seed field %s in %s; seeds must be deterministic",
				why, key.Name, st.n.Name()))
		} else if j, ok := st.paramIndex(kv.Value); ok {
			sum.sinkParams[j] = true
		}
	}
}
