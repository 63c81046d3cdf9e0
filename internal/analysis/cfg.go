package analysis

// This file is the suite's control-flow-graph core: intraprocedural
// basic blocks built from go/ast, with short-circuit conditions
// decomposed so that `a && b` guards dominate exactly the code they
// guard. The reaching-definitions engine in dataflow.go runs over
// these graphs; poollife is the analyzer on top. Everything here is
// standard library only, matching the loader's `go list -export`
// approach.

import (
	"go/ast"
	"go/token"
)

// A Block is one basic block: a maximal straight-line sequence of
// statements (and condition expressions) with branching only at the
// end. Nodes holds the block's AST nodes in execution order. A
// condition block ends with the condition it branches on (the
// short-circuit decomposition guarantees it contains no && / || / ! at
// its top level) and has exactly two successors, the true edge's
// target first and the false edge's second; a range head likewise
// lists the loop body, then the block after the loop.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
}

// A CFG is the control-flow graph of one function body. Entry is the
// first executed block; Exit is the single synthetic exit block every
// return (and the fall-off-the-end path) feeds. Deferred statements
// are modelled at Exit: their calls run when the function leaves, not
// where the defer statement appears.
type CFG struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
}

// BuildCFG constructs the control-flow graph of body. It handles the
// full statement language: if/else with short-circuit condition
// decomposition, for and range loops, switch/type-switch (with
// fallthrough), select, labeled break/continue, goto, return, panic,
// and defer (deferred statements attach to the exit block).
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{cfg: &CFG{}}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = b.newBlock()
	b.cur = b.cfg.Entry
	b.labels = map[string]*labelInfo{}
	b.stmtList(body.List)
	b.edge(b.cur, b.cfg.Exit)
	// goto targets seen only after every statement was built.
	for _, g := range b.pendingGotos {
		if li := b.labels[g.label]; li != nil && li.block != nil {
			b.edge(g.from, li.block)
		}
	}
	// Deferred statements execute at function exit.
	b.cfg.Exit.Nodes = append(b.cfg.Exit.Nodes, b.defers...)
	return b.cfg
}

type labelInfo struct {
	block *Block // the labeled statement's block (goto target)
}

type loopCtx struct {
	label string
	brk   *Block
	cont  *Block // nil for switch/select (break-only)
}

type pendingGoto struct {
	from  *Block
	label string
}

type cfgBuilder struct {
	cfg          *CFG
	cur          *Block
	loops        []loopCtx
	labels       map[string]*labelInfo
	pendingGotos []pendingGoto
	defers       []ast.Node
	// nextLabel holds a label naming the next loop/switch statement, so
	// `continue L` and `break L` resolve to that construct's targets.
	nextLabel string
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// use ensures there is a current block to append to; statements after a
// terminator (return, break, goto) land in a fresh unreachable block.
func (b *cfgBuilder) use() *Block {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	return b.cur
}

func (b *cfgBuilder) append(n ast.Node) {
	blk := b.use()
	blk.Nodes = append(blk.Nodes, n)
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// cond builds the short-circuit decomposition of e starting at the
// current block: control reaches t when e is true and f when e is
// false. The current block becomes nil (both arms must set it).
func (b *cfgBuilder) cond(e ast.Expr, t, f *Block) {
	switch x := e.(type) {
	case *ast.ParenExpr:
		b.cond(x.X, t, f)
		return
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			b.cond(x.X, f, t)
			return
		}
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND:
			mid := b.newBlock()
			b.cond(x.X, mid, f)
			b.cur = mid
			b.cond(x.Y, t, f)
			return
		case token.LOR:
			mid := b.newBlock()
			b.cond(x.X, t, mid)
			b.cur = mid
			b.cond(x.Y, t, f)
			return
		}
	}
	blk := b.use()
	blk.Nodes = append(blk.Nodes, e)
	b.edge(blk, t)
	b.edge(blk, f)
	b.cur = nil
}

func (b *cfgBuilder) pushLoop(label string, brk, cont *Block) {
	b.loops = append(b.loops, loopCtx{label: label, brk: brk, cont: cont})
}

func (b *cfgBuilder) popLoop() { b.loops = b.loops[:len(b.loops)-1] }

func (b *cfgBuilder) findBreak(label string) *Block {
	for i := len(b.loops) - 1; i >= 0; i-- {
		if label == "" || b.loops[i].label == label {
			return b.loops[i].brk
		}
	}
	return nil
}

func (b *cfgBuilder) findContinue(label string) *Block {
	for i := len(b.loops) - 1; i >= 0; i-- {
		if b.loops[i].cont != nil && (label == "" || b.loops[i].label == label) {
			return b.loops[i].cont
		}
	}
	return nil
}

// takeLabel consumes the pending label for the construct being built.
func (b *cfgBuilder) takeLabel() string {
	l := b.nextLabel
	b.nextLabel = ""
	return l
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		lb := b.newBlock()
		b.edge(b.use(), lb)
		b.cur = lb
		li := b.labels[s.Label.Name]
		if li == nil {
			li = &labelInfo{}
			b.labels[s.Label.Name] = li
		}
		li.block = lb
		b.nextLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.nextLabel = ""

	case *ast.IfStmt:
		b.takeLabel()
		if s.Init != nil {
			b.append(s.Init)
		}
		then := b.newBlock()
		join := b.newBlock()
		if s.Else == nil {
			b.cond(s.Cond, then, join)
			b.cur = then
			b.stmtList(s.Body.List)
			b.edge(b.cur, join)
		} else {
			els := b.newBlock()
			b.cond(s.Cond, then, els)
			b.cur = then
			b.stmtList(s.Body.List)
			b.edge(b.cur, join)
			b.cur = els
			b.stmt(s.Else)
			b.edge(b.cur, join)
		}
		b.cur = join

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.append(s.Init)
		}
		head := b.newBlock()
		body := b.newBlock()
		after := b.newBlock()
		cont := head
		var post *Block
		if s.Post != nil {
			post = b.newBlock()
			cont = post
		}
		b.edge(b.use(), head)
		b.cur = head
		if s.Cond != nil {
			b.cond(s.Cond, body, after)
		} else {
			b.edge(b.use(), body)
			b.cur = nil
		}
		b.pushLoop(label, after, cont)
		b.cur = body
		b.stmtList(s.Body.List)
		b.edge(b.cur, cont)
		if post != nil {
			b.cur = post
			b.stmt(s.Post)
			b.edge(b.cur, head)
		}
		b.popLoop()
		b.cur = after

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock()
		body := b.newBlock()
		after := b.newBlock()
		b.edge(b.use(), head)
		// The RangeStmt node itself carries the X evaluation and the
		// per-iteration key/value definitions.
		head.Nodes = append(head.Nodes, s)
		b.edge(head, body)
		b.edge(head, after)
		b.pushLoop(label, after, head)
		b.cur = body
		b.stmtList(s.Body.List)
		b.edge(b.cur, head)
		b.popLoop()
		b.cur = after

	case *ast.SwitchStmt:
		b.buildSwitch(s.Init, tagNode(s.Tag), s.Body)

	case *ast.TypeSwitchStmt:
		b.buildSwitch(s.Init, s.Assign, s.Body)

	case *ast.SelectStmt:
		label := b.takeLabel()
		after := b.newBlock()
		dispatch := b.use()
		b.pushLoop(label, after, nil)
		for _, cc := range s.Body.List {
			comm := cc.(*ast.CommClause)
			blk := b.newBlock()
			b.edge(dispatch, blk)
			if comm.Comm != nil {
				blk.Nodes = append(blk.Nodes, comm.Comm)
			}
			b.cur = blk
			b.stmtList(comm.Body)
			b.edge(b.cur, after)
		}
		b.popLoop()
		b.cur = after

	case *ast.ReturnStmt:
		b.append(s)
		b.edge(b.cur, b.cfg.Exit)
		b.cur = nil

	case *ast.BranchStmt:
		label := ""
		if s.Label != nil {
			label = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			b.append(s)
			b.edge(b.cur, b.findBreak(label))
			b.cur = nil
		case token.CONTINUE:
			b.append(s)
			b.edge(b.cur, b.findContinue(label))
			b.cur = nil
		case token.GOTO:
			b.append(s)
			b.pendingGotos = append(b.pendingGotos, pendingGoto{from: b.cur, label: label})
			b.cur = nil
		case token.FALLTHROUGH:
			// Handled structurally by buildSwitch; reaching here means a
			// malformed tree — treat as a no-op statement.
			b.append(s)
		}

	case *ast.DeferStmt:
		b.defers = append(b.defers, s)

	case *ast.ExprStmt:
		b.append(s)
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				b.edge(b.cur, b.cfg.Exit)
				b.cur = nil
			}
		}

	case *ast.EmptyStmt:
		// nothing

	default:
		// AssignStmt, DeclStmt, IncDecStmt, SendStmt, GoStmt, ...
		b.append(s)
	}
}

// tagNode wraps a switch tag expression as a statement-position node
// (nil tags stay nil).
func tagNode(tag ast.Expr) ast.Stmt {
	if tag == nil {
		return nil
	}
	return &ast.ExprStmt{X: tag}
}

// buildSwitch constructs switch and type-switch graphs: a dispatch
// block evaluating init/tag, one block per case clause (each a
// successor of the dispatch block — clause conditions are not
// short-circuit-decomposed, which is sound for the must-analyses: they
// only lose guard facts, never invent them), fallthrough chaining, and
// an implicit break to the join block.
func (b *cfgBuilder) buildSwitch(init ast.Stmt, tag ast.Stmt, body *ast.BlockStmt) {
	label := b.takeLabel()
	if init != nil {
		b.append(init)
	}
	if tag != nil {
		b.append(tag)
	}
	dispatch := b.use()
	after := b.newBlock()
	var clauses []*ast.CaseClause
	for _, cc := range body.List {
		clauses = append(clauses, cc.(*ast.CaseClause))
	}
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		blocks[i] = b.newBlock()
		b.edge(dispatch, blocks[i])
		if cc.List == nil {
			hasDefault = true
		}
		// Case expressions are evaluated in the clause's block so their
		// uses are visible to the dataflow walks.
		for _, e := range cc.List {
			blocks[i].Nodes = append(blocks[i].Nodes, e)
		}
	}
	if !hasDefault {
		b.edge(dispatch, after)
	}
	b.pushLoop(label, after, nil)
	for i, cc := range clauses {
		b.cur = blocks[i]
		stmts := cc.Body
		fallsThrough := false
		if n := len(stmts); n > 0 {
			if br, ok := stmts[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				stmts = stmts[:n-1]
				fallsThrough = true
			}
		}
		b.stmtList(stmts)
		if fallsThrough && i+1 < len(blocks) {
			b.edge(b.cur, blocks[i+1])
		} else {
			b.edge(b.cur, after)
		}
	}
	b.popLoop()
	b.cur = after
}
