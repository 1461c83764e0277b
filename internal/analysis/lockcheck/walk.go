package lockcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"

	"github.com/greenps/greenps/internal/analysis/framework"
)

// blockingOp classifies the operations that block the goroutine by
// themselves: a channel send or receive, a select without default and a
// range over a channel. Calls are classified by DirectBlockingCall
// instead.
func blockingOp(info *types.Info, m ast.Node) (string, bool) {
	switch x := m.(type) {
	case *ast.SendStmt:
		return "channel send", true
	case *ast.UnaryExpr:
		if x.Op == token.ARROW {
			return "channel receive", true
		}
	case *ast.SelectStmt:
		for _, c := range x.Body.List {
			if c.(*ast.CommClause).Comm == nil {
				return "", false
			}
		}
		return "select without default", true
	case *ast.RangeStmt:
		if t := info.TypeOf(x.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				return "range over channel", true
			}
		}
	}
	return "", false
}

// HeldSite is a call, channel send or receive, select without default or
// range over a channel reached with locks that may be held. Op describes
// a channel operation; it is empty for a call, which run classifies with
// DirectBlockingCall.
type HeldSite struct {
	Node ast.Node
	Op   string
	Held []HeldLock
}

// HeldLock is one lock that may be held at a site, with the position
// where it was last acquired on some path reaching the site.
type HeldLock struct {
	Root     string
	Acquired token.Pos
}

// orderEdge records one direct nested acquisition: inner locked at pos
// while outer may be held.
type orderEdge struct {
	outer, inner string
	pos          token.Pos
}

// lockset maps a lock's canonical root to its latest acquisition position
// on some path (may-analysis). A nil lockset means no path reaches the
// point.
type lockset map[string]token.Pos

// join merges b into a and returns the result; either may be nil. The
// roots of a keep their positions, so the first path into a merge, in
// source order, names the acquisition. join may return b itself.
func join(a, b lockset) lockset {
	if a == nil {
		return b
	}
	for root, pos := range b {
		if _, ok := a[root]; !ok {
			a[root] = pos
		}
	}
	return a
}

// held lists the lockset sorted by root.
func (ls lockset) held() []HeldLock {
	out := make([]HeldLock, 0, len(ls))
	for root, pos := range ls {
		out = append(out, HeldLock{Root: root, Acquired: pos})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Root < out[j].Root })
	return out
}

// lockWalk carries one body's lockset walk.
type lockWalk struct {
	pass *framework.Pass
	// record marks the final pass, which fills sites and edges from the
	// stable facts.
	record bool
	sites  []HeldSite
	edges  []orderEdge
	// heads holds each loop's stable head fact; labels the facts goto
	// statements carry to each label, and grew whether a pass added to
	// them.
	heads  map[ast.Stmt]lockset
	labels map[string]lockset
	grew   bool
	// jumps are the enclosing break and continue targets, innermost last.
	jumps []*jumpTarget
}

// jumpTarget is a loop, switch or select that a break (and, for a loop, a
// continue) can leave; brk and cont join the facts that arrive.
type jumpTarget struct {
	label     string
	loop      bool
	brk, cont lockset
}

// lockPre runs the lockset analysis over one function body: a forward
// may-analysis, walked over the syntax, whose join is union, so a lock
// counts as held at a merge if any incoming path holds it. Loops iterate
// to a fixpoint, and the walk repeats while a goto carries a new lock to
// its label. One recording pass over the stable facts then returns the
// body's HeldSites, in source order, and its direct nested acquisitions.
// Go and defer statements are skipped: a spawned body runs outside the
// critical section, and deferred calls — `defer mu.Unlock()` included —
// run at exit, so a deferred unlock keeps its lock held to the end. A
// function literal's body is a body of its own, not part of this one.
func lockPre(pass *framework.Pass, body *ast.BlockStmt) ([]HeldSite, []orderEdge) {
	w := &lockWalk{pass: pass, heads: make(map[ast.Stmt]lockset), labels: make(map[string]lockset)}
	for w.grew = true; w.grew; {
		w.grew = false
		w.stmts(body.List, lockset{})
	}
	w.record = true
	w.stmts(body.List, lockset{})
	sort.SliceStable(w.sites, func(i, j int) bool { return w.sites[i].Node.Pos() < w.sites[j].Node.Pos() })
	return w.sites, w.edges
}

func (w *lockWalk) stmts(list []ast.Stmt, ls lockset) lockset {
	for _, s := range list {
		ls = w.stmt(s, ls)
	}
	return ls
}

// stmt walks one statement from the fact before it, which it owns, and
// returns the fact after it.
func (w *lockWalk) stmt(s ast.Stmt, ls lockset) lockset {
	label := ""
	for l, ok := s.(*ast.LabeledStmt); ok; l, ok = s.(*ast.LabeledStmt) {
		label, s = l.Label.Name, l.Stmt
		ls = join(ls, maps.Clone(w.labels[label]))
	}
	if ls == nil {
		return nil // no path reaches s
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.stmts(s.List, ls)
	case *ast.ReturnStmt:
		w.apply(s, ls)
		return nil
	case *ast.ExprStmt:
		w.apply(s, ls)
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return nil
			}
		}
	case *ast.BranchStmt:
		return w.branch(s, ls)
	case *ast.GoStmt, *ast.DeferStmt:
	case *ast.IfStmt:
		w.apply(s.Init, ls)
		w.apply(s.Cond, ls)
		then := w.stmts(s.Body.List, maps.Clone(ls))
		if s.Else != nil {
			ls = w.stmt(s.Else, ls)
		}
		return join(then, ls)
	case *ast.ForStmt, *ast.RangeStmt:
		return w.loop(s, label, ls)
	case *ast.SwitchStmt:
		w.apply(s.Init, ls)
		w.apply(s.Tag, ls)
		return w.clauses(s.Body, label, ls)
	case *ast.TypeSwitchStmt:
		w.apply(s.Init, ls)
		w.apply(s.Assign, ls)
		return w.clauses(s.Body, label, ls)
	case *ast.SelectStmt:
		w.visit(s, ls) // the select blocks, not its comm clauses
		t := w.push(label, false)
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			in := maps.Clone(ls)
			if cc.Comm != nil {
				mark := len(w.sites)
				w.apply(cc.Comm, in)
				w.sites = w.sites[:mark]
			}
			t.brk = join(t.brk, w.stmts(cc.Body, in))
		}
		w.pop()
		return t.brk
	default:
		w.apply(s, ls)
	}
	return ls
}

// branch sends the fact at a break, continue or goto to its target and
// ends the path; a fallthrough's fact is carried on by clauses.
func (w *lockWalk) branch(s *ast.BranchStmt, ls lockset) lockset {
	switch s.Tok {
	case token.FALLTHROUGH:
		return ls
	case token.GOTO:
		old := w.labels[s.Label.Name]
		size := len(old)
		w.labels[s.Label.Name] = join(old, ls)
		w.grew = w.grew || old == nil || len(w.labels[s.Label.Name]) > size
		return nil
	}
	for i := len(w.jumps) - 1; i >= 0; i-- {
		t := w.jumps[i]
		if s.Label != nil && s.Label.Name != t.label || s.Label == nil && s.Tok == token.CONTINUE && !t.loop {
			continue
		}
		if s.Tok == token.BREAK {
			t.brk = join(t.brk, ls)
		} else {
			t.cont = join(t.cont, ls)
		}
		break
	}
	return nil
}

func (w *lockWalk) push(label string, loop bool) *jumpTarget {
	t := &jumpTarget{label: label, loop: loop}
	w.jumps = append(w.jumps, t)
	return t
}

func (w *lockWalk) pop() { w.jumps = w.jumps[:len(w.jumps)-1] }

// loop walks a for or range statement. Outside the recording pass its
// head fact is iterated until it stops growing and then stored; the
// recording pass walks the body once from the stored fact.
func (w *lockWalk) loop(s ast.Stmt, label string, pre lockset) lockset {
	if f, ok := s.(*ast.ForStmt); ok {
		w.apply(f.Init, pre)
	}
	if w.record {
		after, _ := w.iterate(s, label, w.heads[s])
		return after
	}
	head := maps.Clone(pre)
	for {
		after, back := w.iterate(s, label, head)
		// Roots only grow, so an unchanged count is an unchanged set.
		next := join(maps.Clone(pre), back)
		if len(next) == len(head) {
			w.heads[s] = head
			return after
		}
		head = next
	}
}

// iterate walks one iteration of a loop from its head fact and returns
// the facts that leave the loop and that return to its head. A for's
// condition and a range's operands are seen with the head fact.
func (w *lockWalk) iterate(s ast.Stmt, label string, head lockset) (after, back lockset) {
	in := maps.Clone(head)
	t := w.push(label, true)
	var body *ast.BlockStmt
	var post ast.Stmt
	switch s := s.(type) {
	case *ast.ForStmt:
		body, post = s.Body, s.Post
		if s.Cond != nil {
			w.apply(s.Cond, in)
			t.brk = maps.Clone(in)
		}
	case *ast.RangeStmt:
		body = s.Body
		w.visit(s, in)
		for _, e := range []ast.Expr{s.Key, s.Value, s.X} {
			w.apply(e, in)
		}
		t.brk = maps.Clone(in)
	}
	end := w.stmts(body.List, in)
	w.pop()
	back = join(t.cont, end)
	if back != nil {
		w.apply(post, back)
	}
	return t.brk, back
}

// clauses walks a switch or type switch body. Each clause starts from the
// dispatch fact, joined with the clause that falls through into it; a
// switch with no default also leaves by an implicit empty arm.
func (w *lockWalk) clauses(body *ast.BlockStmt, label string, ls lockset) lockset {
	t := w.push(label, false)
	t.brk = maps.Clone(ls)
	for _, c := range body.List {
		if c.(*ast.CaseClause).List == nil {
			t.brk = nil
		}
	}
	var fall lockset
	for _, c := range body.List {
		cc := c.(*ast.CaseClause)
		in := join(maps.Clone(ls), fall)
		for _, e := range cc.List {
			w.apply(e, in)
		}
		out := w.stmts(cc.Body, in)
		fall = nil
		if last := len(cc.Body) - 1; last >= 0 && isBranch(cc.Body[last], token.FALLTHROUGH) {
			fall = out
		} else {
			t.brk = join(t.brk, out)
		}
	}
	w.pop()
	return t.brk
}

func isBranch(s ast.Stmt, tok token.Token) bool {
	b, ok := s.(*ast.BranchStmt)
	return ok && b.Tok == tok
}

// apply walks one statement or expression, if any, without entering
// function literals, visiting each node in evaluation order.
func (w *lockWalk) apply(node ast.Node, ls lockset) {
	if node != nil {
		ast.Inspect(node, func(m ast.Node) bool { return w.visit(m, ls) })
	}
}

// visit applies one node to ls: a lock operation updates it and, on the
// recording pass, the direct order edges; any other call, and a blocking
// channel operation, reached with a lock held is a HeldSite.
func (w *lockWalk) visit(m ast.Node, ls lockset) bool {
	if _, ok := m.(*ast.FuncLit); ok {
		return false
	}
	call, isCall := m.(*ast.CallExpr)
	if !isCall {
		if desc, ok := blockingOp(w.pass.Info, m); ok {
			w.site(m, desc, ls)
		}
		return true
	}
	root, op, ok := LockOp(w.pass, call)
	if !ok {
		w.site(call, "", ls)
		return true
	}
	switch op {
	case "Lock", "RLock":
		if w.record {
			for held := range ls {
				if held != root {
					w.edges = append(w.edges, orderEdge{outer: held, inner: root, pos: call.Pos()})
				}
			}
		}
		ls[root] = call.Pos()
	case "Unlock", "RUnlock":
		delete(ls, root)
	}
	return false
}

func (w *lockWalk) site(m ast.Node, op string, ls lockset) {
	if w.record && len(ls) > 0 {
		w.sites = append(w.sites, HeldSite{Node: m, Op: op, Held: ls.held()})
	}
}
