// Package cfg builds intraprocedural control-flow graphs from go/ast
// function bodies and provides a small fixpoint solver over them, the
// dataflow layer under greenvet's path-sensitive analyzers (lockcheck,
// errflow, hotalloc — DESIGN.md §11).
//
// The design mirrors golang.org/x/tools/go/cfg (reimplemented here
// because the module tree is offline): a Graph is a set of basic Blocks;
// each Block holds the non-control nodes executed straight-line —
// plain statements plus the header parts of control statements (an if's
// Init and Cond, a for's Cond, a switch's Tag) — and edges carry the
// branching structure. Two compound statements appear in blocks as
// opaque markers rather than being decomposed: a RangeStmt (standing for
// "evaluate X, assign Key/Value each iteration") heads its loop, and a
// SelectStmt (standing for "block until a case is ready") precedes its
// clause blocks. Analyzers must scan block nodes with InspectShallow,
// which visits exactly the parts of such markers that are not already
// placed in other blocks.
//
// Terminators: a return edges to the synthetic Exit block; a call to the
// panic builtin ends its block with no successors (panic abandons normal
// control flow, so path properties like "this error reaches the exit
// unread" deliberately ignore panicking paths). Falling off the end of
// the body edges to Exit. Defer statements stay in their blocks and are
// additionally collected in Graph.Defers, since deferred work observes
// the function's exit regardless of which path reached it.
package cfg

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Block is one basic block: nodes executed without branching.
type Block struct {
	// Index is the block's position in Graph.Blocks.
	Index int
	// Nodes holds plain statements and control-statement header parts
	// (conditions, init statements, range/select markers) in execution
	// order. Scan them with InspectShallow.
	Nodes []ast.Node
	// Succs and Preds are the control-flow edges. A block with no
	// successors that is not the Exit block ends in panic (or heads an
	// infinite loop with no escape).
	Succs []*Block
	Preds []*Block
	// comment labels the block's role for String dumps and tests.
	comment string
}

// Graph is the control-flow graph of one function body.
type Graph struct {
	// Blocks lists every block; Blocks[0] is the entry.
	Blocks []*Block
	// Exit is the synthetic exit block (no nodes). Every return and
	// every fall-off-the-end path edges here.
	Exit *Block
	// Defers collects the function's defer statements in source order;
	// their effects apply at every exit.
	Defers []*ast.DeferStmt
}

// Entry returns the entry block.
func (g *Graph) Entry() *Block { return g.Blocks[0] }

// builder carries the construction state.
type builder struct {
	g   *Graph
	cur *Block // nil while the current path is terminated

	// breakTo/continueTo are the innermost loop/switch targets.
	breakTo    []*Block
	continueTo []*Block
	// labels maps a label name to its blocks: the target block for
	// goto/continue and the after block for labeled break.
	labels map[string]*labelBlocks
	// gotos are forward gotos resolved at the end of the build.
	gotos []pendingGoto
}

type labelBlocks struct {
	target *Block // the labeled statement's head (goto target)
	cont   *Block // where a labeled continue lands (loops only)
	after  *Block // where a labeled break lands (nil until known)
}

type pendingGoto struct {
	from  *Block
	label string
}

// New builds the CFG of one function body (from a FuncDecl or FuncLit).
func New(body *ast.BlockStmt) *Graph {
	b := &builder{
		g:      &Graph{},
		labels: make(map[string]*labelBlocks),
	}
	entry := b.newBlock("entry")
	b.g.Exit = b.newBlock("exit")
	b.cur = entry
	b.stmts(body.List)
	// Falling off the end returns.
	b.edgeToExit()
	for _, pg := range b.gotos {
		if lb, ok := b.labels[pg.label]; ok && lb.target != nil {
			addEdge(pg.from, lb.target)
		}
	}
	return b.g
}

func (b *builder) newBlock(comment string) *Block {
	blk := &Block{Index: len(b.g.Blocks), comment: comment}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func addEdge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// startBlock makes blk current, wiring an edge from the previous current
// block when the path has not terminated.
func (b *builder) startBlock(blk *Block) {
	if b.cur != nil {
		addEdge(b.cur, blk)
	}
	b.cur = blk
}

// add appends a node to the current block, resurrecting an unreachable
// block for code after a terminator so every node is still analyzed.
func (b *builder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// edgeToExit terminates the current path into the exit block.
func (b *builder) edgeToExit() {
	if b.cur != nil {
		addEdge(b.cur, b.g.Exit)
		b.cur = nil
	}
}

func (b *builder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case nil, *ast.EmptyStmt:
	case *ast.BlockStmt:
		b.stmts(st.List)
	case *ast.DeferStmt:
		b.g.Defers = append(b.g.Defers, st)
		b.add(st)
	case *ast.ReturnStmt:
		b.add(st)
		b.edgeToExit()
	case *ast.ExprStmt:
		b.add(st)
		if isPanic(st.X) {
			b.cur = nil // panic abandons normal control flow
		}
	case *ast.LabeledStmt:
		b.labeledStmt(st)
	case *ast.BranchStmt:
		b.branchStmt(st)
	case *ast.IfStmt:
		b.ifStmt(st)
	case *ast.ForStmt:
		b.forStmt(st, nil)
	case *ast.RangeStmt:
		b.rangeStmt(st, nil)
	case *ast.SwitchStmt:
		b.switchStmt(st, nil)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(st, nil)
	case *ast.SelectStmt:
		b.selectStmt(st, nil)
	default:
		// Assign, Decl, IncDec, Send, Go: straight-line nodes.
		b.add(s)
	}
}

// isPanic reports a direct call to the panic builtin.
func isPanic(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

func (b *builder) labeledStmt(st *ast.LabeledStmt) {
	name := st.Label.Name
	lb := b.labels[name]
	if lb == nil {
		lb = &labelBlocks{}
		b.labels[name] = lb
	}
	target := b.newBlock("label." + name)
	lb.target = target
	b.startBlock(target)
	switch inner := st.Stmt.(type) {
	case *ast.ForStmt:
		b.forStmt(inner, lb)
	case *ast.RangeStmt:
		b.rangeStmt(inner, lb)
	case *ast.SwitchStmt:
		b.switchStmt(inner, lb)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(inner, lb)
	case *ast.SelectStmt:
		b.selectStmt(inner, lb)
	default:
		b.stmt(st.Stmt)
	}
}

func (b *builder) branchStmt(st *ast.BranchStmt) {
	b.add(st)
	switch st.Tok {
	case token.BREAK:
		var target *Block
		if st.Label != nil {
			if lb := b.labels[st.Label.Name]; lb != nil {
				target = lb.after
			}
		} else if len(b.breakTo) > 0 {
			target = b.breakTo[len(b.breakTo)-1]
		}
		if target != nil && b.cur != nil {
			addEdge(b.cur, target)
		}
		b.cur = nil
	case token.CONTINUE:
		var target *Block
		if st.Label != nil {
			if lb := b.labels[st.Label.Name]; lb != nil {
				target = lb.cont
			}
		} else if len(b.continueTo) > 0 {
			target = b.continueTo[len(b.continueTo)-1]
		}
		if target != nil && b.cur != nil {
			addEdge(b.cur, target)
		}
		b.cur = nil
	case token.GOTO:
		if st.Label != nil && b.cur != nil {
			b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: st.Label.Name})
		}
		b.cur = nil
	case token.FALLTHROUGH:
		// Edge added by switchStmt; just terminate the clause here.
		b.cur = nil
	}
}

func (b *builder) ifStmt(st *ast.IfStmt) {
	if st.Init != nil {
		b.add(st.Init)
	}
	b.add(st.Cond)
	condBlock := b.cur
	after := b.newBlock("if.after")

	then := b.newBlock("if.then")
	addEdge(condBlock, then)
	b.cur = then
	b.stmts(st.Body.List)
	if b.cur != nil {
		addEdge(b.cur, after)
	}

	if st.Else != nil {
		els := b.newBlock("if.else")
		addEdge(condBlock, els)
		b.cur = els
		b.stmt(st.Else)
		if b.cur != nil {
			addEdge(b.cur, after)
		}
	} else {
		addEdge(condBlock, after)
	}

	b.cur = after
	if len(after.Preds) == 0 {
		b.cur = nil // both arms terminated
	}
}

// forStmt builds for loops; lb carries the label context when the loop is
// labeled.
func (b *builder) forStmt(st *ast.ForStmt, lb *labelBlocks) {
	if st.Init != nil {
		b.add(st.Init)
	}
	head := b.newBlock("for.head")
	body := b.newBlock("for.body")
	post := b.newBlock("for.post")
	after := b.newBlock("for.after")
	if lb != nil {
		lb.cont = post // continue L jumps to the post statement
		lb.after = after
	}
	b.startBlock(head)
	if st.Cond != nil {
		b.add(st.Cond)
		addEdge(head, after)
	}
	addEdge(head, body)

	b.breakTo = append(b.breakTo, after)
	b.continueTo = append(b.continueTo, post)
	b.cur = body
	b.stmts(st.Body.List)
	if b.cur != nil {
		addEdge(b.cur, post)
	}
	b.breakTo = b.breakTo[:len(b.breakTo)-1]
	b.continueTo = b.continueTo[:len(b.continueTo)-1]

	b.cur = post
	if st.Post != nil {
		b.add(st.Post)
	}
	addEdge(post, head)
	b.cur = after
	if len(after.Preds) == 0 {
		b.cur = nil // for {} with no break: code after is unreachable
	}
}

func (b *builder) rangeStmt(st *ast.RangeStmt, lb *labelBlocks) {
	head := b.newBlock("range.head")
	body := b.newBlock("range.body")
	after := b.newBlock("range.after")
	if lb != nil {
		lb.cont = head
		lb.after = after
	}
	b.startBlock(head)
	// The RangeStmt itself is the header marker: it evaluates X once and
	// assigns Key/Value each iteration. InspectShallow visits only those
	// parts.
	b.add(st)
	addEdge(head, body)
	addEdge(head, after)

	b.breakTo = append(b.breakTo, after)
	b.continueTo = append(b.continueTo, head)
	b.cur = body
	b.stmts(st.Body.List)
	if b.cur != nil {
		addEdge(b.cur, head)
	}
	b.breakTo = b.breakTo[:len(b.breakTo)-1]
	b.continueTo = b.continueTo[:len(b.continueTo)-1]
	b.cur = after
}

func (b *builder) switchStmt(st *ast.SwitchStmt, lb *labelBlocks) {
	if st.Init != nil {
		b.add(st.Init)
	}
	if st.Tag != nil {
		b.add(st.Tag)
	}
	b.caseClauses(st.Body, lb, func(cc *ast.CaseClause, blk *Block) {
		for _, e := range cc.List {
			blk.Nodes = append(blk.Nodes, e)
		}
	})
}

func (b *builder) typeSwitchStmt(st *ast.TypeSwitchStmt, lb *labelBlocks) {
	if st.Init != nil {
		b.add(st.Init)
	}
	b.add(st.Assign)
	b.caseClauses(st.Body, lb, func(cc *ast.CaseClause, blk *Block) {
		// Type expressions carry no dataflow; nothing to add.
	})
}

// caseClauses wires the shared switch shape: the dispatching block edges
// to every clause (and to after when there is no default); fallthrough
// edges clause i to clause i+1.
func (b *builder) caseClauses(body *ast.BlockStmt, lb *labelBlocks, header func(*ast.CaseClause, *Block)) {
	dispatch := b.cur
	if dispatch == nil {
		dispatch = b.newBlock("unreachable")
		b.cur = dispatch
	}
	after := b.newBlock("switch.after")
	if lb != nil {
		lb.after = after
	}
	var clauseBlocks []*Block
	var clauses []*ast.CaseClause
	hasDefault := false
	for _, cl := range body.List {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		blk := b.newBlock("switch.case")
		header(cc, blk)
		addEdge(dispatch, blk)
		if cc.List == nil {
			hasDefault = true
		}
		clauseBlocks = append(clauseBlocks, blk)
		clauses = append(clauses, cc)
	}
	if !hasDefault {
		addEdge(dispatch, after)
	}
	b.breakTo = append(b.breakTo, after)
	for i, cc := range clauses {
		b.cur = clauseBlocks[i]
		b.stmts(cc.Body)
		if b.cur != nil {
			// Fallthrough must be the final statement; wire it to the next
			// clause, otherwise fall to after.
			if hasFallthrough(cc.Body) && i+1 < len(clauseBlocks) {
				addEdge(b.cur, clauseBlocks[i+1])
			} else {
				addEdge(b.cur, after)
			}
		}
	}
	b.breakTo = b.breakTo[:len(b.breakTo)-1]
	b.cur = after
	if len(after.Preds) == 0 {
		b.cur = nil
	}
}

func hasFallthrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	bs, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && bs.Tok == token.FALLTHROUGH
}

func (b *builder) selectStmt(st *ast.SelectStmt, lb *labelBlocks) {
	// The SelectStmt node itself marks the blocking point in the
	// dispatching block; clause comm statements and bodies live in the
	// clause blocks.
	b.add(st)
	dispatch := b.cur
	after := b.newBlock("select.after")
	if lb != nil {
		lb.after = after
	}
	b.breakTo = append(b.breakTo, after)
	any := false
	for _, cl := range st.Body.List {
		cc, ok := cl.(*ast.CommClause)
		if !ok {
			continue
		}
		any = true
		blk := b.newBlock("select.case")
		addEdge(dispatch, blk)
		b.cur = blk
		if cc.Comm != nil {
			b.add(cc.Comm)
		}
		b.stmts(cc.Body)
		if b.cur != nil {
			addEdge(b.cur, after)
		}
	}
	b.breakTo = b.breakTo[:len(b.breakTo)-1]
	if !any {
		// select {} blocks forever.
		b.cur = nil
		return
	}
	b.cur = after
	if len(after.Preds) == 0 {
		b.cur = nil
	}
}

// HasDefault reports whether a select statement has a default clause
// (making it non-blocking).
func HasDefault(st *ast.SelectStmt) bool {
	for _, cl := range st.Body.List {
		if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// InspectShallow walks n like ast.Inspect, but visits only the parts of
// a node that the CFG placed in the same block: it does not descend into
// function literal bodies (they are separate CFGs), into a range marker's
// loop body (only X, Key, and Value are visited), or into a select
// marker's clauses (nothing inside is visited — the marker only stands
// for the blocking dispatch).
func InspectShallow(n ast.Node, fn func(ast.Node) bool) {
	switch x := n.(type) {
	case *ast.SelectStmt:
		fn(x)
		return
	case *ast.RangeStmt:
		if !fn(x) {
			return
		}
		if x.Key != nil {
			InspectShallow(x.Key, fn)
		}
		if x.Value != nil {
			InspectShallow(x.Value, fn)
		}
		InspectShallow(x.X, fn)
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			return true
		}
		if lit, ok := m.(*ast.FuncLit); ok {
			fn(lit)
			return false
		}
		return fn(m)
	})
}

// String renders the graph compactly for tests and debugging.
func (g *Graph) String() string {
	var sb strings.Builder
	for _, blk := range g.Blocks {
		fmt.Fprintf(&sb, "b%d(%s):", blk.Index, blk.comment)
		for _, s := range blk.Succs {
			fmt.Fprintf(&sb, " ->b%d", s.Index)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
