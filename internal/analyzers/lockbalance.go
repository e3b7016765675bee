package analyzers

import (
	"go/ast"
	"go/token"
	"strings"
)

// checkLockBalance flags Mutex/RWMutex acquisitions that are not
// provably released on every path out of the function. Accepted
// patterns, per receiver expression X:
//
//   - `X.Lock()` anywhere in a function that also contains
//     `defer X.Unlock()` (the dominant idiom);
//   - `X.Lock()` followed later in the same statement list by
//     `X.Unlock()`, with no return statement in between;
//   - either release spelled through a named cleanup closure defined
//     in the same function (`cleanup := func() { X.Unlock() }` with a
//     later `defer cleanup()` or direct `cleanup()` call);
//   - `if X.TryLock()` / `if !X.TryLock()` guards, whose success path
//     must release the same way (TryLock acquisitions that leak are
//     flagged like Lock ones).
//
// Everything else — a Lock with no textual Unlock, or a return that
// can fire between the pair — is flagged. The analysis is per
// function body and purely syntactic; helper methods that lock on
// behalf of a caller need a suppression comment stating the protocol.
func checkLockBalance() Check {
	const id = "lockbalance"
	return Check{
		ID:  id,
		Doc: "every Mutex.Lock has a defer Unlock or a matching Unlock on all return paths",
		OnFile: func(f *File) []Diagnostic {
			var diags []Diagnostic
			funcBodies(f.AST, func(name string, ftype *ast.FuncType, body *ast.BlockStmt) {
				diags = append(diags, lockFindings(f, id, name, body)...)
			})
			return diags
		},
	}
}

// lockKind distinguishes the write and read halves of an RWMutex so
// RLock is matched against RUnlock, not Unlock.
func lockKind(name string) (unlock string, ok bool) {
	switch name {
	case "Lock":
		return "Unlock", true
	case "RLock":
		return "RUnlock", true
	}
	return "", false
}

// litUnlocks collects the "recv.Unlock" calls a closure body performs.
func litUnlocks(fl *ast.FuncLit) []string {
	var keys []string
	ast.Inspect(fl.Body, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		r, nm := calleeOf(call)
		if r != "" && (nm == "Unlock" || nm == "RUnlock") {
			keys = append(keys, r+"."+nm)
		}
		return true
	})
	return keys
}

// closureUnlockers maps every function-valued variable assigned a
// literal in this body to the unlock calls that literal performs, so
// cleanup-closure idioms credit the receiver whether the closure is
// deferred or called directly.
func closureUnlockers(body *ast.BlockStmt) map[string][]string {
	out := map[string][]string{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i := range as.Lhs {
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			fl, ok := as.Rhs[i].(*ast.FuncLit)
			if !ok {
				continue
			}
			out[id.Name] = append(out[id.Name], litUnlocks(fl)...)
		}
		return true
	})
	return out
}

// lockFindings walks one function body.
func lockFindings(f *File, id, fname string, body *ast.BlockStmt) []Diagnostic {
	closures := closureUnlockers(body)

	// Receivers with a deferred unlock anywhere in the function:
	// their locks are safe regardless of control flow.
	deferred := map[string]bool{} // "recv.Unlock" -> true
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // separate frame, separate pass
		}
		ds, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		recv, name := calleeOf(ds.Call)
		if recv != "" && (name == "Unlock" || name == "RUnlock") {
			deferred[recv+"."+name] = true
		}
		// A deferred closure that unlocks also counts — an inline
		// literal or a named cleanup closure defined in this body.
		if fl, ok := ds.Call.Fun.(*ast.FuncLit); ok {
			for _, key := range litUnlocks(fl) {
				deferred[key] = true
			}
		}
		if recv == "" && name != "" {
			for _, key := range closures[name] {
				deferred[key] = true
			}
		}
		return true
	})

	var diags []Diagnostic
	var walkList func(stmts []ast.Stmt)
	walkList = func(stmts []ast.Stmt) {
		for i, s := range stmts {
			// Recurse into nested blocks; function literals are their
			// own frame and get their own funcBodies pass.
			ast.Inspect(s, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false
				}
				if blk, ok := n.(*ast.BlockStmt); ok && n != s {
					walkList(blk.List)
					return false
				}
				return true
			})

			if ifs, ok := s.(*ast.IfStmt); ok {
				diags = append(diags, tryLockFindings(f, id, fname, ifs, stmts[i+1:], deferred, closures)...)
				continue
			}
			es, ok := s.(*ast.ExprStmt)
			if !ok {
				continue
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok {
				continue
			}
			recv, name := calleeOf(call)
			unlockName, isLock := lockKind(name)
			if !isLock || recv == "" || !looksLikeMutex(recv) {
				continue
			}
			if deferred[recv+"."+unlockName] {
				continue
			}
			// Scan forward in this statement list for the unlock;
			// any return before it escapes with the lock held.
			released := false
			for _, later := range stmts[i+1:] {
				if returnBeforeUnlock(later, recv, unlockName, closures) {
					diags = append(diags, diag(f.Fset, call.Pos(), id, SeverityError,
						"%s.%s in %s: a return path escapes before %s.%s; use defer",
						recv, name, fname, recv, unlockName))
					released = true // reported; don't double-report below
					break
				}
				if stmtUnlocks(later, recv, unlockName, closures) {
					released = true
					break
				}
			}
			if !released {
				diags = append(diags, diag(f.Fset, call.Pos(), id, SeverityError,
					"%s.%s in %s has no defer %s.%s and no unlock on the fallthrough path",
					recv, name, fname, recv, unlockName))
			}
		}
	}
	walkList(body.List)
	return diags
}

// tryCond extracts the receiver and matching unlock of an if condition
// of the form X.TryLock() / X.TryRLock() or its negation.
func tryCond(cond ast.Expr) (recv, unlock string, negated, ok bool) {
	if un, isNot := cond.(*ast.UnaryExpr); isNot && un.Op == token.NOT {
		cond = un.X
		negated = true
	}
	call, isCall := cond.(*ast.CallExpr)
	if !isCall {
		return "", "", false, false
	}
	r, name := calleeOf(call)
	switch name {
	case "TryLock":
		unlock = "Unlock"
	case "TryRLock":
		unlock = "RUnlock"
	default:
		return "", "", false, false
	}
	if r == "" || !looksLikeMutex(r) {
		return "", "", false, false
	}
	return r, unlock, negated, true
}

// tryLockFindings extends the balance discipline to TryLock guards: a
// successful TryLock is an acquisition like any other. Positive guards
// (`if X.TryLock() { ... }`) must release inside the guarded body;
// negated guards (`if !X.TryLock() { bail }`) must release on the
// fallthrough path after the if.
func tryLockFindings(f *File, id, fname string, ifs *ast.IfStmt, rest []ast.Stmt, deferred map[string]bool, closures map[string][]string) []Diagnostic {
	recv, unlock, negated, ok := tryCond(ifs.Cond)
	if !ok {
		return nil
	}
	key := recv + "." + unlock
	if deferred[key] {
		return nil
	}
	released := false
	if negated {
		for _, later := range rest {
			if stmtUnlocks(later, recv, unlock, closures) {
				released = true
				break
			}
		}
	} else {
		for _, inner := range ifs.Body.List {
			if stmtUnlocks(inner, recv, unlock, closures) {
				released = true
				break
			}
		}
	}
	if released {
		return nil
	}
	try := "TryLock"
	if unlock == "RUnlock" {
		try = "TryRLock"
	}
	return []Diagnostic{diag(f.Fset, ifs.Cond.Pos(), id, SeverityError,
		"%s.%s in %s: the success path never releases %s; add defer %s.%s",
		recv, try, fname, recv, recv, unlock)}
}

// looksLikeMutex filters receiver names so arbitrary .Lock methods
// (e.g. a file-lock API) only match when the expression reads like a
// mutex: the last path element is or contains mu/mtx/mutex/lock, case
// insensitive. Conservative on purpose — this codebase names its
// mutexes mu.
func looksLikeMutex(recv string) bool {
	last := recv
	if i := strings.LastIndex(recv, "."); i >= 0 {
		last = recv[i+1:]
	}
	lower := strings.ToLower(last)
	return lower == "mu" || lower == "mtx" ||
		strings.Contains(lower, "mutex") || strings.Contains(lower, "lock")
}

// stmtUnlocks reports whether a statement (or anything nested in it)
// releases recv outside a defer: a direct recv.unlockName call, or a
// call to a named cleanup closure known to perform that unlock.
// Closure bodies are skipped — defining a closure releases nothing;
// calling one is what counts (defers are the deferred map's job).
func stmtUnlocks(s ast.Stmt, recv, unlockName string, closures map[string][]string) bool {
	key := recv + "." + unlockName
	found := false
	ast.Inspect(s, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.DeferStmt, *ast.FuncLit:
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		r, nm := calleeOf(call)
		if r == recv && nm == unlockName {
			found = true
		}
		if r == "" && nm != "" {
			for _, k := range closures[nm] {
				if k == key {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// returnBeforeUnlock reports whether a statement contains a return
// that is not preceded (within the statement's own nesting) by the
// matching unlock.
func returnBeforeUnlock(s ast.Stmt, recv, unlockName string, closures map[string][]string) bool {
	if stmtUnlocks(s, recv, unlockName, closures) {
		// The unlock exists somewhere inside; assume the author paired
		// it with any return in the same arm. A finer path analysis
		// costs more precision than it buys at this codebase's size.
		return false
	}
	found := false
	ast.Inspect(s, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ReturnStmt:
			found = true
		case *ast.FuncLit:
			return false // separate frame, separate analysis
		}
		return !found
	})
	return found
}
