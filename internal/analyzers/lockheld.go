package analyzers

import (
	"go/ast"
	"go/types"
	"strings"
)

// checkLockHeld flags blocking operations reachable while a sync.Mutex
// or sync.RWMutex is held. Holding a lock across a block point turns
// every other acquirer into a queue behind an unbounded wait — the
// serve/cluster failure mode where one slow replica forward freezes a
// whole shard. Blocking means:
//
//   - a channel send or receive (outside a select with a default);
//   - a select with no default clause;
//   - time.Sleep and (*sync.WaitGroup).Wait;
//   - anything in net or net/http — dials, round trips, handler
//     invocations — whose latency is the network's, not ours;
//   - transitively, any loaded function whose body reaches one of the
//     above through plain calls (EdgeCall only: goroutine launches
//     return immediately and deferred calls run after the unlock logic
//     the region analysis already models).
//
// Regions are tracked per statement list with typed receiver matching:
// mu.Lock()/RLock() opens a region for that receiver expression,
// mu.Unlock()/RUnlock() closes it, defer mu.Unlock() holds it to
// function exit, and nested blocks inherit the enclosing held set.
// TryLock/TryRLock in a condition position do not open a region here —
// lockbalance owns pairing discipline; this check only needs the
// conservative "is anything held" view.
type lockHeldCheck struct {
	ic *InterContext
	id string

	// memo caches the transitive blocking verdict per node. A nil entry
	// marks in-progress (cycle cut: recursion assumes non-blocking,
	// which is sound for the fixpoint because blocking is monotone from
	// direct evidence).
	memo map[*CallNode]*blockVerdict

	diags []Diagnostic
}

// blockVerdict is one memoized answer: whether the node can block, and
// a witness call path for the message.
type blockVerdict struct {
	blocks bool
	why    string   // leaf reason, e.g. "time.Sleep" or "channel receive"
	path   []string // call chain from the node to the leaf, exclusive of the node
}

func checkLockHeld() Check {
	const id = "lockheld"
	return Check{
		ID: id,
		Doc: "no blocking operation (channel op, select, time.Sleep, WaitGroup.Wait, net/http call, " +
			"or a callee reaching one) while a sync.Mutex/RWMutex is held",
		OnSurface: func(ic *InterContext) []Diagnostic {
			c := &lockHeldCheck{ic: ic, id: id, memo: map[*CallNode]*blockVerdict{}}
			for _, n := range ic.Graph.Nodes() {
				if n.External() || !ic.onSurface(n.posOf()) {
					continue
				}
				c.scanNode(n)
			}
			return c.diags
		},
	}
}

// mutexRecv returns the receiver expression of a sync.Mutex/RWMutex
// method call with the given method names, or nil.
func mutexRecv(info *types.Info, call *ast.CallExpr, methods ...string) ast.Expr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	found := false
	for _, m := range methods {
		if sel.Sel.Name == m {
			found = true
			break
		}
	}
	if !found {
		return nil
	}
	tv, ok := info.Types[sel.X]
	if !ok {
		return nil
	}
	t := tv.Type
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return nil
	}
	if name := obj.Name(); name != "Mutex" && name != "RWMutex" {
		return nil
	}
	return sel.X
}

// scanNode walks one function body tracking held mutexes per statement
// list and flagging blocking operations inside held regions.
func (c *lockHeldCheck) scanNode(n *CallNode) {
	c.scanList(n, n.Body.List, map[string]bool{})
}

// scanList processes one statement list. held maps receiver renderings
// (exprString) to "currently held"; nested lists inherit a copy so a
// lock taken inside an if-block does not leak into its siblings.
func (c *lockHeldCheck) scanList(n *CallNode, stmts []ast.Stmt, held map[string]bool) {
	info := n.File.Package.Info
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				if recv := mutexRecv(info, call, "Lock", "RLock"); recv != nil {
					held[exprString(recv)] = true
					continue
				}
				if recv := mutexRecv(info, call, "Unlock", "RUnlock"); recv != nil {
					delete(held, exprString(recv))
					continue
				}
				// A call to a cleanup closure that unlocks a held mutex
				// releases it too (cleanup := func() { mu.Unlock() }).
				for _, key := range c.calleeUnlocks(n, call) {
					delete(held, key)
				}
			}
		case *ast.DeferStmt:
			// defer mu.Unlock() keeps the region open to function exit,
			// which for this scan is simply "held for the rest of the
			// list" — already the held map's behavior. The deferred call
			// itself runs at exit; skip it.
			continue
		}
		if len(held) > 0 {
			c.flagBlocking(n, stmt, held)
		}
		c.recurseLists(n, stmt, held)
	}
}

// recurseLists descends into the statement lists nested in one
// statement, each with its own copy of the held set.
func (c *lockHeldCheck) recurseLists(n *CallNode, stmt ast.Stmt, held map[string]bool) {
	recurse := func(body *ast.BlockStmt) {
		if body != nil {
			c.scanList(n, body.List, copyHeld(held))
		}
	}
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		recurse(s)
	case *ast.IfStmt:
		recurse(s.Body)
		if els, ok := s.Else.(*ast.BlockStmt); ok {
			recurse(els)
		} else if els, ok := s.Else.(*ast.IfStmt); ok {
			c.recurseLists(n, els, held)
		}
	case *ast.ForStmt:
		recurse(s.Body)
	case *ast.RangeStmt:
		recurse(s.Body)
	case *ast.SwitchStmt:
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				c.scanList(n, cc.Body, copyHeld(held))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				c.scanList(n, cc.Body, copyHeld(held))
			}
		}
	case *ast.SelectStmt:
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok {
				c.scanList(n, cc.Body, copyHeld(held))
			}
		}
	case *ast.LabeledStmt:
		c.recurseLists(n, s.Stmt, held)
	}
}

func copyHeld(held map[string]bool) map[string]bool {
	out := make(map[string]bool, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// heldNames renders the held set for messages, deterministically.
func heldNames(held map[string]bool) string {
	names := make([]string, 0, len(held))
	for k := range held {
		names = append(names, k)
	}
	if len(names) > 1 {
		// Small set; insertion sort keeps it dependency-free.
		for i := 1; i < len(names); i++ {
			for j := i; j > 0 && names[j] < names[j-1]; j-- {
				names[j], names[j-1] = names[j-1], names[j]
			}
		}
	}
	return strings.Join(names, ", ")
}

// flagBlocking inspects the top level of one statement (not the nested
// lists recurseLists owns, not closure bodies) for blocking operations
// while held is non-empty.
func (c *lockHeldCheck) flagBlocking(n *CallNode, stmt ast.Stmt, held map[string]bool) {
	lock := heldNames(held)
	ast.Inspect(stmt, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.FuncLit:
			return false // separate frame; blocking inside runs when called
		case *ast.BlockStmt:
			return false // nested lists handled by recurseLists
		case *ast.SelectStmt:
			if !selectHasDefault(node) {
				c.diags = append(c.diags, diag(c.ic.fset, node.Pos(), c.id, SeverityError,
					"select with no default while %s is held in %s; waiting peers queue behind the lock",
					lock, n.Name()))
			}
			return false // clause bodies handled by recurseLists
		case *ast.SendStmt:
			c.diags = append(c.diags, diag(c.ic.fset, node.Pos(), c.id, SeverityError,
				"channel send while %s is held in %s; release the lock before communicating",
				lock, n.Name()))
		case *ast.UnaryExpr:
			if node.Op.String() == "<-" && isChanRecv(n, node) {
				c.diags = append(c.diags, diag(c.ic.fset, node.Pos(), c.id, SeverityError,
					"channel receive while %s is held in %s; release the lock before communicating",
					lock, n.Name()))
			}
		case *ast.CallExpr:
			c.flagBlockingCall(n, node, lock)
		}
		return true
	})
}

// flagBlockingCall checks one call site against the transitive blocking
// predicate, via the graph's resolved edges for that site.
func (c *lockHeldCheck) flagBlockingCall(n *CallNode, call *ast.CallExpr, lock string) {
	for _, e := range n.Out {
		if e.Site != call || e.Kind != EdgeCall {
			continue
		}
		v := c.blocks(e.Callee)
		if !v.blocks {
			continue
		}
		via := ""
		if len(v.path) > 0 {
			via = " via " + strings.Join(v.path, " -> ")
		}
		c.diags = append(c.diags, diag(c.ic.fset, call.Pos(), c.id, SeverityError,
			"call to %s blocks (%s%s) while %s is held in %s; release the lock first",
			e.Callee.Name(), v.why, via, lock, n.Name()))
		return // one finding per site, even with fan-out
	}
}

// calleeUnlocks returns the held-set keys a call releases through its
// callees: function literals (and local functions) whose own frame
// calls recv.Unlock()/RUnlock(). Resolution uses the graph's edges for
// the site, so only closures the builder could bind are credited.
func (c *lockHeldCheck) calleeUnlocks(n *CallNode, call *ast.CallExpr) []string {
	var keys []string
	for _, e := range n.Out {
		if e.Site != call || e.Kind != EdgeCall || e.Callee.External() {
			continue
		}
		callee := e.Callee
		info := callee.File.Package.Info
		ast.Inspect(callee.Body, func(node ast.Node) bool {
			if lit, ok := node.(*ast.FuncLit); ok && lit != callee.Lit {
				return false
			}
			inner, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			if recv := mutexRecv(info, inner, "Unlock", "RUnlock"); recv != nil {
				keys = append(keys, exprString(recv))
			}
			return true
		})
	}
	return keys
}

// blockingExternal classifies body-less nodes by qualified name or
// package: the leaf facts the transitive predicate grows from. The net
// and net/http packages are blocking by default — their latency is the
// peer's — except for the allowlisted in-memory helpers.
func blockingExternal(fn *types.Func) (string, bool) {
	switch qualifiedName(fn) {
	case "time.Sleep":
		return "time.Sleep", true
	case "(*sync.WaitGroup).Wait":
		return "WaitGroup.Wait", true
	}
	if pkg := fn.Pkg(); pkg != nil {
		if p := pkg.Path(); p == "net" || p == "net/http" {
			if pureNetFunc(fn) {
				return "", false
			}
			return qualifiedName(fn), true
		}
	}
	return "", false
}

// pureNetFunc allowlists the net/net-http helpers that never touch the
// network or a request body: status tables, header-map manipulation,
// address parsing, request metadata.
func pureNetFunc(fn *types.Func) bool {
	switch qualifiedName(fn) {
	case "net/http.StatusText", "net/http.CanonicalHeaderKey", "net/http.DetectContentType",
		"net/http.NewRequest", "net/http.NewRequestWithContext", "net/http.NotFoundHandler",
		"net/http.RedirectHandler", "net/http.StripPrefix", "net/http.NewServeMux",
		"net.JoinHostPort", "net.SplitHostPort", "net.ParseIP", "net.ParseCIDR", "net.ParseMAC":
		return true
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	switch named.Obj().Name() {
	case "Header", "IP", "IPNet", "IPAddr", "TCPAddr", "UDPAddr", "HardwareAddr", "Cookie":
		return true
	case "Request":
		// Metadata accessors only: anything touching Body or the wire
		// (Write, ParseForm, FormValue, MultipartReader, ...) blocks.
		switch fn.Name() {
		case "Context", "WithContext", "Clone", "Cookie", "Cookies", "CookiesNamed",
			"AddCookie", "BasicAuth", "SetBasicAuth", "UserAgent", "Referer",
			"ProtoAtLeast", "PathValue", "SetPathValue":
			return true
		}
	}
	return false
}

// blocks computes (memoized) whether a node can block, with a witness.
func (c *lockHeldCheck) blocks(n *CallNode) *blockVerdict {
	if v, ok := c.memo[n]; ok {
		if v == nil {
			return &blockVerdict{} // cycle: assume non-blocking this round
		}
		return v
	}
	c.memo[n] = nil // in progress
	v := c.computeBlocks(n)
	c.memo[n] = v
	return v
}

func (c *lockHeldCheck) computeBlocks(n *CallNode) *blockVerdict {
	if n.External() {
		if why, ok := blockingExternal(n.Obj); ok {
			return &blockVerdict{blocks: true, why: why}
		}
		return &blockVerdict{}
	}
	// Direct evidence in the body (own frame only).
	direct := ""
	ast.Inspect(n.Body, func(node ast.Node) bool {
		if direct != "" {
			return false
		}
		switch node := node.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			if !selectHasDefault(node) {
				direct = "select"
			}
			return true
		case *ast.SendStmt:
			direct = "channel send"
		case *ast.UnaryExpr:
			if node.Op.String() == "<-" && isChanRecv(n, node) && !insideSelectComm(n.Body, node) {
				direct = "channel receive"
			}
		}
		return true
	})
	if direct != "" {
		return &blockVerdict{blocks: true, why: direct}
	}
	// Transitive evidence through plain calls.
	for _, e := range n.Out {
		if e.Kind != EdgeCall {
			continue
		}
		if v := c.blocks(e.Callee); v.blocks {
			return &blockVerdict{
				blocks: true,
				why:    v.why,
				path:   append([]string{e.Callee.Name()}, v.path...),
			}
		}
	}
	return &blockVerdict{}
}

// selectHasDefault reports whether a select has a default clause.
func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// insideSelectComm reports whether a receive expression is the comm
// clause of some select under root — those are already judged by the
// select itself.
func insideSelectComm(root ast.Node, recv *ast.UnaryExpr) bool {
	found := false
	ast.Inspect(root, func(node ast.Node) bool {
		if found {
			return false
		}
		sel, ok := node.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, clause := range sel.Body.List {
			cc, ok := clause.(*ast.CommClause)
			if !ok || cc.Comm == nil {
				continue
			}
			ast.Inspect(cc.Comm, func(inner ast.Node) bool {
				if inner == recv {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}
