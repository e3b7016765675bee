package analyzers

import (
	"go/ast"
	"go/token"
)

// This file is the foundation of the per-function (flow-sensitive)
// checks: a control-flow graph over go/ast. Each function body is
// split into basic blocks — maximal straight-line statement runs — with
// explicit edges for if/for/range/switch/select, labeled break and
// continue, goto, and the terminating calls (return, panic, os.Exit,
// log.Fatal*). The graph is deliberately simple: statements stay as
// ast.Node values in evaluation order, conditions are recorded on the
// branching block so dataflow clients can refine state along true/false
// edges, and loop membership is computed from the graph itself (Tarjan
// SCC), so goto-formed loops count as loops too.

// Block is one basic block: nodes in evaluation order, successor and
// predecessor edges, and — when the block ends in a two-way branch —
// the condition expression, with Succs[0] the true edge and Succs[1]
// the false edge.
type Block struct {
	Index int
	Nodes []ast.Node
	// Cond is the branch condition when this block ends in a two-way
	// conditional (if or for-with-condition); nil otherwise. When set,
	// Succs[0] is the edge taken when Cond is true and Succs[1] the
	// edge when it is false.
	Cond  ast.Expr
	Succs []*Block
	Preds []*Block
	// InLoop is true when the block lies on a cycle of the graph
	// (including one-block self loops).
	InLoop bool
}

// CFG is the control-flow graph of a single function body.
type CFG struct {
	Blocks []*Block
	Entry  *Block
	// Exit is the single synthetic exit block: return statements,
	// terminating calls, and falling off the end all flow here.
	Exit *Block

	blockOf map[ast.Node]*Block
}

// BlockOf returns the basic block holding a statement-level node, or
// nil when the node was not placed (e.g. it is nested inside another
// recorded statement).
func (g *CFG) BlockOf(n ast.Node) *Block { return g.blockOf[n] }

// BuildCFG constructs the control-flow graph of one function body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	g := &CFG{blockOf: map[ast.Node]*Block{}}
	b := &cfgBuilder{g: g}
	g.Entry = b.newBlock()
	g.Exit = b.newBlock()
	b.cur = g.Entry
	b.stmtList(body.List)
	b.seal(g.Exit)
	g.markLoops()
	return g
}

// frame is one enclosing breakable construct: loops carry both break
// and continue targets, switch/select only break.
type frame struct {
	label string
	brk   *Block
	cont  *Block // nil for switch/select
}

type cfgBuilder struct {
	g *CFG
	// cur is the block under construction; nil after a terminator
	// (return/break/goto/...) until the next reachable join point.
	cur    *Block
	frames []frame
	labels map[string]*Block // label name -> target block (goto/labeled stmt)
	// pendingLabel is set while building the statement of a
	// LabeledStmt so the loop/switch it labels registers the name on
	// its frame.
	pendingLabel string
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// seal ends the current block with an edge to the given successor (if
// control can reach the end of the current block at all).
func (b *cfgBuilder) seal(to *Block) {
	if b.cur != nil {
		b.edge(b.cur, to)
	}
	b.cur = nil
}

// add places a node in the current block, opening an unreachable block
// if control cannot reach it (dead code after return/break/goto).
func (b *cfgBuilder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
	b.g.blockOf[n] = b.cur
}

func (b *cfgBuilder) labelBlock(name string) *Block {
	if b.labels == nil {
		b.labels = map[string]*Block{}
	}
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock()
	b.labels[name] = blk
	return blk
}

func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

// findFrame returns the innermost frame matching the label (any frame
// when label is empty); loop-only constrains to frames with a continue
// target.
func (b *cfgBuilder) findFrame(label string, loopOnly bool) *frame {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := &b.frames[i]
		if loopOnly && f.cont == nil {
			continue
		}
		if label == "" || f.label == label {
			return f
		}
	}
	return nil
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s, b.takeLabel())
	case *ast.RangeStmt:
		b.rangeStmt(s, b.takeLabel())
	case *ast.SwitchStmt:
		b.switchStmt(s.Init, s.Tag, s.Body, b.takeLabel())
	case *ast.TypeSwitchStmt:
		b.switchStmt(s.Init, nil, s.Body, b.takeLabel())
		// The per-clause binding (x := y.(type)) travels with the
		// head; clause-local refinement is beyond this graph.
	case *ast.SelectStmt:
		b.selectStmt(s, b.takeLabel())
	case *ast.LabeledStmt:
		target := b.labelBlock(s.Label.Name)
		b.seal(target)
		b.cur = target
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""
	case *ast.BranchStmt:
		b.branchStmt(s)
	case *ast.ReturnStmt:
		b.add(s)
		b.seal(b.g.Exit)
	case *ast.ExprStmt:
		b.add(s)
		if call, ok := s.X.(*ast.CallExpr); ok && isTerminatingCall(call) {
			b.seal(b.g.Exit)
		}
	case *ast.EmptyStmt:
		// nothing
	default:
		// DeclStmt, AssignStmt, IncDecStmt, SendStmt, DeferStmt,
		// GoStmt, ...: straight-line nodes. Deferred calls run at
		// function exit, not here; the defer site still evaluates its
		// arguments, so the statement stays in evaluation order.
		b.add(s)
	}
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Cond)
	head := b.cur
	head.Cond = s.Cond
	then := b.newBlock()
	after := b.newBlock()
	b.edge(head, then) // true edge first
	var elseB *Block
	if s.Else != nil {
		elseB = b.newBlock()
		b.edge(head, elseB)
	} else {
		b.edge(head, after)
	}
	b.cur = then
	b.stmtList(s.Body.List)
	b.seal(after)
	if s.Else != nil {
		b.cur = elseB
		b.stmt(s.Else)
		b.seal(after)
	}
	b.cur = after
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	head := b.newBlock()
	b.seal(head)
	after := b.newBlock()
	body := b.newBlock()
	b.cur = head
	if s.Cond != nil {
		b.add(s.Cond)
		head.Cond = s.Cond
		b.edge(head, body)  // true edge
		b.edge(head, after) // false edge
	} else {
		b.edge(head, body)
	}
	cont := head
	var post *Block
	if s.Post != nil {
		post = b.newBlock()
		cont = post
	}
	b.frames = append(b.frames, frame{label: label, brk: after, cont: cont})
	b.cur = body
	b.stmtList(s.Body.List)
	b.frames = b.frames[:len(b.frames)-1]
	b.seal(cont)
	if post != nil {
		b.cur = post
		b.add(s.Post)
		b.seal(head)
	}
	b.cur = after
	// `for {}` with no break leaves after unreachable; that is the
	// correct graph.
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt, label string) {
	head := b.newBlock()
	b.seal(head)
	// The whole RangeStmt sits in the head: the range expression is
	// evaluated there and the key/value variables are (re)assigned on
	// every iteration.
	b.cur = head
	b.cur.Nodes = append(b.cur.Nodes, s)
	b.g.blockOf[s] = head
	body := b.newBlock()
	after := b.newBlock()
	b.edge(head, body)
	b.edge(head, after)
	b.frames = append(b.frames, frame{label: label, brk: after, cont: head})
	b.cur = body
	b.stmtList(s.Body.List)
	b.frames = b.frames[:len(b.frames)-1]
	b.seal(head)
	b.cur = after
}

func (b *cfgBuilder) switchStmt(init ast.Stmt, tag ast.Expr, body *ast.BlockStmt, label string) {
	if init != nil {
		b.add(init)
	}
	if tag != nil {
		b.add(tag)
	}
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	head := b.cur
	after := b.newBlock()
	b.frames = append(b.frames, frame{label: label, brk: after})

	// Create all clause blocks first so fallthrough can edge forward.
	var clauses []*ast.CaseClause
	var blocks []*Block
	hasDefault := false
	for _, cs := range body.List {
		cc, ok := cs.(*ast.CaseClause)
		if !ok {
			continue
		}
		clauses = append(clauses, cc)
		blk := b.newBlock()
		blocks = append(blocks, blk)
		b.edge(head, blk)
		if cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.edge(head, after)
	}
	for i, cc := range clauses {
		blk := blocks[i]
		for _, e := range cc.List {
			blk.Nodes = append(blk.Nodes, e)
			b.g.blockOf[e] = blk
		}
		b.cur = blk
		fallsThrough := false
		for _, cs := range cc.Body {
			if br, ok := cs.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = true
				continue
			}
			b.stmt(cs)
		}
		if fallsThrough && i+1 < len(blocks) {
			b.seal(blocks[i+1])
		} else {
			b.seal(after)
		}
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = after
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt, label string) {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	head := b.cur
	after := b.newBlock()
	b.frames = append(b.frames, frame{label: label, brk: after})
	for _, cs := range s.Body.List {
		cc, ok := cs.(*ast.CommClause)
		if !ok {
			continue
		}
		blk := b.newBlock()
		b.edge(head, blk)
		b.cur = blk
		if cc.Comm != nil {
			b.add(cc.Comm)
		}
		b.stmtList(cc.Body)
		b.seal(after)
	}
	// A select with no cases blocks forever; every real select reaches
	// after only through a clause.
	if len(s.Body.List) == 0 {
		b.edge(head, after)
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = after
}

func (b *cfgBuilder) branchStmt(s *ast.BranchStmt) {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok {
	case token.BREAK:
		if f := b.findFrame(label, false); f != nil {
			b.seal(f.brk)
		} else {
			b.cur = nil
		}
	case token.CONTINUE:
		if f := b.findFrame(label, true); f != nil {
			b.seal(f.cont)
		} else {
			b.cur = nil
		}
	case token.GOTO:
		if label != "" {
			b.seal(b.labelBlock(label))
		} else {
			b.cur = nil
		}
	case token.FALLTHROUGH:
		// Handled structurally in switchStmt; stray fallthrough (which
		// would not compile) is ignored.
	}
}

// isTerminatingCall reports whether a call never returns: panic,
// os.Exit, runtime.Goexit, and the log.Fatal family.
func isTerminatingCall(call *ast.CallExpr) bool {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name == "panic"
	case *ast.SelectorExpr:
		pkg, ok := fn.X.(*ast.Ident)
		if !ok {
			return false
		}
		switch pkg.Name + "." + fn.Sel.Name {
		case "os.Exit", "runtime.Goexit", "log.Fatal", "log.Fatalf", "log.Fatalln":
			return true
		}
	}
	return false
}

// markLoops sets InLoop on every block lying on a cycle, via Tarjan's
// strongly-connected-components algorithm (iterative): any SCC with
// more than one block is a loop, as is a single block with a self edge.
func (g *CFG) markLoops() {
	n := len(g.Blocks)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	next := 0

	type item struct {
		v  int
		si int // next successor to visit
	}
	for start := 0; start < n; start++ {
		if index[start] != -1 {
			continue
		}
		work := []item{{v: start}}
		index[start] = next
		low[start] = next
		next++
		stack = append(stack, start)
		onStack[start] = true
		for len(work) > 0 {
			it := &work[len(work)-1]
			v := it.v
			if it.si < len(g.Blocks[v].Succs) {
				w := g.Blocks[v].Succs[it.si].Index
				it.si++
				if index[w] == -1 {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					work = append(work, item{v: w})
				} else if onStack[w] {
					if index[w] < low[v] {
						low[v] = index[w]
					}
				}
				continue
			}
			work = work[:len(work)-1]
			if len(work) > 0 {
				p := work[len(work)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				// v roots an SCC; pop it.
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				inLoop := len(comp) > 1
				if !inLoop {
					for _, s := range g.Blocks[v].Succs {
						if s.Index == v {
							inLoop = true
							break
						}
					}
				}
				if inLoop {
					for _, w := range comp {
						g.Blocks[w].InLoop = true
					}
				}
			}
		}
	}
}

// postorder returns the blocks reachable from Entry in depth-first
// postorder; reversing it gives the forward-dataflow iteration order.
func (g *CFG) postorder() []*Block {
	seen := make([]bool, len(g.Blocks))
	var out []*Block
	type item struct {
		b  *Block
		si int
	}
	work := []item{{b: g.Entry}}
	seen[g.Entry.Index] = true
	for len(work) > 0 {
		it := &work[len(work)-1]
		if it.si < len(it.b.Succs) {
			s := it.b.Succs[it.si]
			it.si++
			if !seen[s.Index] {
				seen[s.Index] = true
				work = append(work, item{b: s})
			}
			continue
		}
		out = append(out, it.b)
		work = work[:len(work)-1]
	}
	return out
}
