package lint

import (
	"go/ast"
	"go/token"
)

// CFG is a per-function control-flow graph over the function's AST. Each
// block holds simple statements and branch conditions in evaluation
// order; composite statements (if/for/switch/select) are decomposed into
// edges. The graph is intentionally statement-grained: the dataflow
// layer (dataflow.go) folds a transfer function over Block.Nodes, so
// expression-level precision lives in the transfer, not the graph.
type CFG struct {
	// Entry is Blocks[0]; Exit is the designated return/fall-off block
	// (always present, possibly unreachable for a function that cannot
	// return).
	Entry, Exit *CFGBlock
	Blocks      []*CFGBlock
}

// CFGBlock is one straight-line run of AST nodes.
type CFGBlock struct {
	// Index is the block's position in CFG.Blocks (deterministic across
	// runs, used to order worklists).
	Index int
	// Nodes are simple statements (assign, call, send, return, go,
	// defer, decl) and branch-condition expressions, in order.
	Nodes []ast.Node
	// Succs are the possible successors.
	Succs []*CFGBlock
}

// BuildCFG constructs the control-flow graph of one function body. The
// same builder serves declared functions and function literals.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{cfg: &CFG{}}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = b.newBlock()
	b.cur = b.cfg.Entry
	b.stmtList(body.List)
	// Falling off the end of the body returns.
	b.edge(b.cur, b.cfg.Exit)
	b.patchGotos()
	return b.cfg
}

// loopFrame tracks one enclosing breakable/continuable construct.
type loopFrame struct {
	label     string
	brk, cont *CFGBlock // cont nil for switch/select frames
	isLoop    bool
}

type cfgBuilder struct {
	cfg  *CFG
	cur  *CFGBlock
	loop []loopFrame

	// pendingLabel is the label immediately preceding a for/switch/
	// select statement, consumed by that statement's frame.
	pendingLabel string

	labels     map[string]*CFGBlock // label -> block starting the labeled stmt
	gotoFixups []gotoFixup
}

type gotoFixup struct {
	from  *CFGBlock
	label string
}

func (b *cfgBuilder) newBlock() *CFGBlock {
	blk := &CFGBlock{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *CFGBlock) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// startBlock begins a fresh block as the current one (no implicit edge).
func (b *cfgBuilder) startBlock() *CFGBlock {
	blk := b.newBlock()
	b.cur = blk
	return blk
}

func (b *cfgBuilder) add(n ast.Node) {
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// frameFor finds the innermost frame matching a break/continue label.
func (b *cfgBuilder) frameFor(label string, needLoop bool) *loopFrame {
	for i := len(b.loop) - 1; i >= 0; i-- {
		f := &b.loop[i]
		if needLoop && !f.isLoop {
			continue
		}
		if label == "" || f.label == label {
			return f
		}
	}
	return nil
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		if b.labels == nil {
			b.labels = make(map[string]*CFGBlock)
		}
		target := b.newBlock()
		b.edge(b.cur, target)
		b.cur = target
		b.labels[s.Label.Name] = target
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.cfg.Exit)
		b.startBlock() // dead code after return

	case *ast.BranchStmt:
		label := ""
		if s.Label != nil {
			label = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			if f := b.frameFor(label, false); f != nil {
				b.edge(b.cur, f.brk)
			}
			b.startBlock()
		case token.CONTINUE:
			if f := b.frameFor(label, true); f != nil && f.cont != nil {
				b.edge(b.cur, f.cont)
			}
			b.startBlock()
		case token.GOTO:
			b.gotoFixups = append(b.gotoFixups, gotoFixup{b.cur, label})
			b.startBlock()
		case token.FALLTHROUGH:
			// Handled structurally by the switch builder (the case body
			// already gets an edge to the next case's body).
		}

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Cond)
		condBlk := b.cur
		after := b.newBlock()
		thenBlk := b.startBlock()
		b.edge(condBlk, thenBlk)
		b.stmtList(s.Body.List)
		b.edge(b.cur, after)
		if s.Else != nil {
			elseBlk := b.startBlock()
			b.edge(condBlk, elseBlk)
			b.stmt(s.Else)
			b.edge(b.cur, after)
		} else {
			b.edge(condBlk, after)
		}
		b.cur = after

	case *ast.ForStmt:
		label := b.pendingLabel
		b.pendingLabel = ""
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock()
		b.edge(b.cur, head)
		b.cur = head
		if s.Cond != nil {
			b.add(s.Cond)
		}
		after := b.newBlock()
		post := b.newBlock()
		body := b.startBlock()
		b.edge(head, body)
		if s.Cond != nil {
			b.edge(head, after)
		}
		b.loop = append(b.loop, loopFrame{label: label, brk: after, cont: post, isLoop: true})
		b.stmtList(s.Body.List)
		b.loop = b.loop[:len(b.loop)-1]
		b.edge(b.cur, post)
		if s.Post != nil {
			b.cur = post
			b.stmt(s.Post)
			b.edge(b.cur, head)
		} else {
			b.edge(post, head)
		}
		b.cur = after

	case *ast.RangeStmt:
		label := b.pendingLabel
		b.pendingLabel = ""
		head := b.newBlock()
		b.edge(b.cur, head)
		b.cur = head
		b.add(s) // the range statement itself: X evaluation + iteration vars
		after := b.newBlock()
		body := b.startBlock()
		b.edge(head, body)
		b.edge(head, after) // empty collection / closed channel
		b.loop = append(b.loop, loopFrame{label: label, brk: after, cont: head, isLoop: true})
		b.stmtList(s.Body.List)
		b.loop = b.loop[:len(b.loop)-1]
		b.edge(b.cur, head)
		b.cur = after

	case *ast.SwitchStmt:
		label := b.pendingLabel
		b.pendingLabel = ""
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchBody(label, s.Body, func(cc *ast.CaseClause) []ast.Node {
			nodes := make([]ast.Node, len(cc.List))
			for i, e := range cc.List {
				nodes[i] = e
			}
			return nodes
		})

	case *ast.TypeSwitchStmt:
		label := b.pendingLabel
		b.pendingLabel = ""
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Assign)
		b.switchBody(label, s.Body, func(*ast.CaseClause) []ast.Node { return nil })

	case *ast.SelectStmt:
		label := b.pendingLabel
		b.pendingLabel = ""
		b.add(s) // the select header carries the blocking decision
		selBlk := b.cur
		after := b.newBlock()
		b.loop = append(b.loop, loopFrame{label: label, brk: after})
		for _, cc := range s.Body.List {
			cl, ok := cc.(*ast.CommClause)
			if !ok {
				continue
			}
			caseBlk := b.startBlock()
			b.edge(selBlk, caseBlk)
			if cl.Comm != nil {
				b.stmt(cl.Comm)
			}
			b.stmtList(cl.Body)
			b.edge(b.cur, after)
		}
		b.loop = b.loop[:len(b.loop)-1]
		if len(s.Body.List) == 0 {
			// select{} blocks forever: after is unreachable.
			b.startBlock()
		}
		b.cur = after

	case *ast.ExprStmt:
		b.add(s)
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				// panic unwinds: nothing after this point runs normally.
				b.startBlock()
			}
		}

	default:
		// Simple statements: assign, send, incdec, decl, defer, go, empty.
		b.add(s)
	}
}

// switchBody builds the shared case-clause structure of switch and type
// switch; caseNodes extracts the per-clause guard expressions.
func (b *cfgBuilder) switchBody(label string, body *ast.BlockStmt, caseNodes func(*ast.CaseClause) []ast.Node) {
	headBlk := b.cur
	after := b.newBlock()
	b.loop = append(b.loop, loopFrame{label: label, brk: after})
	var clauseBlocks []*CFGBlock
	var clauses []*ast.CaseClause
	hasDefault := false
	for _, cc := range body.List {
		cl, ok := cc.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cl.List == nil {
			hasDefault = true
		}
		caseBlk := b.startBlock()
		b.edge(headBlk, caseBlk)
		for _, n := range caseNodes(cl) {
			b.add(n)
		}
		clauseBlocks = append(clauseBlocks, caseBlk)
		clauses = append(clauses, cl)
	}
	for i, cl := range clauses {
		b.cur = clauseBlocks[i]
		// Re-enter the clause block to append its body after the guards.
		b.stmtList(cl.Body)
		if fallsThrough(cl.Body) && i+1 < len(clauseBlocks) {
			b.edge(b.cur, clauseBlocks[i+1])
		} else {
			b.edge(b.cur, after)
		}
	}
	b.loop = b.loop[:len(b.loop)-1]
	if !hasDefault {
		b.edge(headBlk, after)
	}
	b.cur = after
}

// fallsThrough reports whether a case body ends in a fallthrough.
func fallsThrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

// patchGotos resolves goto edges after all labels are known.
func (b *cfgBuilder) patchGotos() {
	for _, fix := range b.gotoFixups {
		if target, ok := b.labels[fix.label]; ok {
			b.edge(fix.from, target)
		}
	}
}
