package analyzers

import (
	"go/ast"
)

// checkGorLeak flags goroutines launched by a function that shows no
// join mechanism: no WaitGroup traffic (Add/Done/Wait on any
// receiver), no channel operation (send, receive, close, select, or
// range over a channel-yielding call), and no errgroup-style
// .Go/.Wait pair. Such a goroutine outlives its spawner invisibly —
// in this codebase, where workers are goroutine-per-instance and
// correctness proofs compare against serial runs, an unjoined
// goroutine is either a leak or a data race waiting for -race to find
// it.
//
// The join evidence is looked for in the spawning function (the
// waiter side); a goroutine body that signals a channel only counts
// if the spawner also touches a channel, which the same scan
// establishes.
func checkGorLeak() Check {
	const id = "gorleak"
	return Check{
		ID:  id,
		Doc: "goroutines must be joined by the launching function (WaitGroup or channel)",
		OnFile: func(f *File) []Diagnostic {
			var diags []Diagnostic
			funcBodies(f.AST, func(name string, ftype *ast.FuncType, body *ast.BlockStmt) {
				var gos []*ast.GoStmt
				ast.Inspect(body, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.GoStmt:
						gos = append(gos, n)
					case *ast.FuncLit:
						// A literal's own launches are judged against
						// the literal when funcBodies visits it.
						if n.Body != body {
							return false
						}
					}
					return true
				})
				if len(gos) == 0 || hasJoinEvidence(body) {
					return
				}
				for _, g := range gos {
					diags = append(diags, diag(f.Fset, g.Pos(), id, SeverityError,
						"goroutine launched in %s with no visible join (WaitGroup or channel) in the enclosing function",
						name))
				}
			})
			return diags
		},
	}
}

// hasJoinEvidence scans one function body (including nested literals,
// whose channel signals are the other half of a join the spawner
// waits on) for any synchronization construct.
func hasJoinEvidence(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt, *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				found = true
			}
		case *ast.CallExpr:
			recv, name := calleeOf(n)
			if recv == "" && name == "close" {
				found = true
			}
			if recv != "" {
				switch name {
				case "Add", "Done", "Wait", "Go":
					found = true
				}
			}
		case *ast.RangeStmt:
			// range over a channel: X is not a map/slice the walker can
			// prove, but a range with no key variable or over a
			// received value is chan-idiomatic. Treat a bare
			// `for x := range ch` as evidence only when paired with a
			// send/close elsewhere — covered by the cases above — so
			// nothing to do here; kept for documentation.
		}
		return !found
	})
	return found
}
