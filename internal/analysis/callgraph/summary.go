package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"github.com/greenps/greenps/internal/analysis/cfg"
	"github.com/greenps/greenps/internal/analysis/framework"
	"github.com/greenps/greenps/internal/analysis/scope"
)

// Summary holds one function's interprocedural facts. Every field only
// ever moves up its lattice (false→true, sets grow) during the SCC
// fixpoint, which is what guarantees convergence for recursion; the
// descriptive fields are set once, the first time their fact flips, so
// they stay stable and deterministic.
type Summary struct {
	// MayBlock: the function may block the calling goroutine — a channel
	// operation, a default-less select, a curated blocking call, or a
	// call to a function that transitively may block.
	MayBlock bool
	// BlockDesc describes the nearest blocking reason ("channel send",
	// "call to broker.Node.send").
	BlockDesc string
	// BlockPath is the call chain from this function down to the leaf
	// operation, for diagnostics ("broker.Node.send → transport.Conn.Send
	// (blocking I/O)"). Capped in length; recursion keeps the prefix.
	BlockPath []string
	// Acquires are the canonical lock roots (callgraph.LockRoot) the
	// function may acquire, transitively.
	Acquires map[string]bool
	// Taints: the function's return values may carry nondeterminism
	// (wall clock, global rand, partial map-iteration order, telemetry).
	Taints bool
	// TaintDesc names the nondeterminism source behind Taints.
	TaintDesc string
}

// BlockChain renders the blocking call chain for diagnostics.
func (s *Summary) BlockChain() string {
	if len(s.BlockPath) == 0 {
		return s.BlockDesc
	}
	return strings.Join(s.BlockPath, " → ")
}

// blockPathCap bounds diagnostic chains (recursion would repeat).
const blockPathCap = 6

// OrderEdge records one observed or composed nested lock acquisition:
// Inner taken (directly at Pos, or inside Via called at Pos) while Outer
// was held. Pkg owns the acquisition site.
type OrderEdge struct {
	Outer, Inner string
	Pos          token.Pos
	Pkg          *framework.Package
	// Via is the callee whose transitive acquisition composed this edge;
	// empty for a direct nested Lock in one body.
	Via string
}

// OrderEdges returns every program-wide acquisition-order edge: direct
// nested acquisitions plus Held×callee.Acquires compositions across call
// chains. Valid after Summarize.
func (g *Graph) OrderEdges() []OrderEdge { return g.orderEdges }

// localFacts caches one body's intraprocedural scan.
type localFacts struct {
	blockDesc   string          // first local blocking operation, "" if none
	taintPolicy string          // non-empty: policy taint (telemetry read)
	acquires    map[string]bool // filled by the lockset pre-analysis
}

// Summarize computes every node's summary bottom-up over SCCs and then
// composes the global lock-order edges. Idempotent per graph.
func (g *Graph) Summarize() {
	for _, n := range g.Nodes {
		if n.External() {
			if n.Summary == nil {
				n.Summary = externalSummary(n.Obj)
			}
			continue
		}
		n.facts = localScan(n)
		n.Summary = &Summary{Acquires: make(map[string]bool)}
	}
	for _, n := range g.Nodes {
		if !n.External() {
			g.lockPre(n)
		}
	}
	for _, scc := range g.sccs() {
		for changed := true; changed; {
			changed = false
			for _, n := range scc {
				if !n.External() && g.update(n) {
					changed = true
				}
			}
		}
	}
	g.composeOrder()
}

// update recomputes n's summary from its local facts and current callee
// summaries; reports whether anything changed.
func (g *Graph) update(n *Node) bool {
	s, f := n.Summary, n.facts
	changed := false
	setBlock := func(desc string, path []string) {
		if s.MayBlock {
			return
		}
		s.MayBlock = true
		s.BlockDesc = desc
		s.BlockPath = path
		changed = true
	}
	if f.blockDesc != "" {
		setBlock(f.blockDesc, []string{f.blockDesc})
	}
	for root := range f.acquires {
		if !s.Acquires[root] {
			s.Acquires[root] = true
			changed = true
		}
	}
	for _, e := range n.Edges {
		cs := e.Callee.Summary
		if cs == nil || e.Go {
			continue
		}
		if cs.MayBlock {
			path := append([]string{e.Callee.Name}, cs.BlockPath...)
			if len(path) > blockPathCap {
				path = path[:blockPathCap]
			}
			setBlock("call to "+e.Callee.Name, path)
		}
		for root := range cs.Acquires {
			if !s.Acquires[root] {
				s.Acquires[root] = true
				changed = true
			}
		}
	}
	if f.taintPolicy != "" && !s.Taints {
		s.Taints = true
		s.TaintDesc = f.taintPolicy
		changed = true
	}
	if !s.Taints {
		if t := g.taintedReturn(n); t != nil {
			s.Taints = true
			s.TaintDesc = t.Desc
			changed = true
		}
	}
	return changed
}

// localScan computes the body-local facts: blocking operations outside
// select guards and the telemetry taint policy (every value a telemetry
// function returns is timing-dependent by definition, whatever its body
// looks like).
func localScan(n *Node) *localFacts {
	f := &localFacts{acquires: make(map[string]bool)}
	if scope.IsTelemetry(n.Pkg.Path) && n.sig != nil && n.sig.Results().Len() > 0 {
		f.taintPolicy = "telemetry read"
	}
	commOf := selectComms(n.Body)
	block := func(desc string) {
		if f.blockDesc == "" {
			f.blockDesc = desc
		}
	}
	ast.Inspect(n.Body, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			if commOf[ast.Node(x)] == nil {
				block("channel send")
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && commOf[ast.Node(x)] == nil {
				block("channel receive")
			}
		case *ast.SelectStmt:
			if !cfg.HasDefault(x) {
				block("select without default")
			}
		case *ast.RangeStmt:
			if t := n.Pkg.Info.TypeOf(x.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					block("range over channel")
				}
			}
		}
		return true
	})
	return f
}

// selectComms maps each communication operation appearing in a select's
// comm position (the SendStmt, or the receive's UnaryExpr) to its
// select statement, so the body scan can tell guarded attempts from
// bare blocking operations.
func selectComms(body *ast.BlockStmt) map[ast.Node]*ast.SelectStmt {
	out := make(map[ast.Node]*ast.SelectStmt)
	ast.Inspect(body, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		sel, ok := m.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, cl := range sel.Body.List {
			cc, ok := cl.(*ast.CommClause)
			if !ok || cc.Comm == nil {
				continue
			}
			switch c := cc.Comm.(type) {
			case *ast.SendStmt:
				out[c] = sel
			case *ast.ExprStmt:
				if u, ok := unparen(c.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
					out[u] = sel
				}
			case *ast.AssignStmt:
				for _, r := range c.Rhs {
					if u, ok := unparen(r).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
						out[u] = sel
					}
				}
			}
		}
		return true
	})
	return out
}

// lockset maps a lock's canonical root to its latest acquisition position
// on some path (may-analysis, matching lockcheck's semantics).
type lockset map[string]token.Pos

func (ls lockset) clone() lockset {
	out := make(lockset, len(ls))
	for k, v := range ls {
		out[k] = v
	}
	return out
}

// lockPre runs the intraprocedural lockset analysis over one body,
// recording (a) the lock roots the function acquires, (b) direct nested
// acquisition order edges, and (c) the may-held lockset at every
// resolved call site (Edge.Held) — the inputs the fixpoint and the
// order composition build on. Go and defer statements are skipped just
// as in lockcheck: a spawned body runs outside the critical section and
// deferred calls run at exit.
func (g *Graph) lockPre(n *Node) {
	graph := cfg.New(n.Body)
	analysis := cfg.Analysis[lockset]{
		Boundary: lockset{},
		Join: func(a, b lockset) lockset {
			out := a.clone()
			for k, v := range b {
				if _, ok := out[k]; !ok {
					out[k] = v
				}
			}
			return out
		},
		Transfer: func(b *cfg.Block, in lockset) lockset {
			out := in.clone()
			for _, node := range b.Nodes {
				g.applyLocks(n, node, out, false)
			}
			return out
		},
		Equal: func(a, b lockset) bool {
			if len(a) != len(b) {
				return false
			}
			for k := range a {
				if _, ok := b[k]; !ok {
					return false
				}
			}
			return true
		},
	}
	in := cfg.Forward(graph, analysis)
	for _, b := range graph.Blocks {
		fact, ok := in[b]
		if !ok {
			continue // unreachable
		}
		cur := fact.clone()
		for _, node := range b.Nodes {
			g.applyLocks(n, node, cur, true)
		}
	}
}

// applyLocks applies one CFG node's lock effects; when record is true it
// also stamps Edge.Held and collects acquires/order edges.
func (g *Graph) applyLocks(n *Node, node ast.Node, ls lockset, record bool) {
	switch node.(type) {
	case *ast.DeferStmt, *ast.GoStmt:
		return
	}
	cfg.InspectShallow(node, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if root, op, ok := LockOp(n.Pkg, call); ok {
			switch op {
			case "Lock", "RLock":
				if record {
					f := n.facts
					f.acquires[root] = true
					for held := range ls {
						if held != root {
							g.orderEdges = append(g.orderEdges, OrderEdge{
								Outer: held, Inner: root, Pos: call.Pos(), Pkg: n.Pkg,
							})
						}
					}
				}
				ls[root] = call.Pos()
			case "Unlock", "RUnlock":
				delete(ls, root)
			}
			return false
		}
		if record && len(ls) > 0 {
			held := make([]string, 0, len(ls))
			for root := range ls {
				held = append(held, root)
			}
			sort.Strings(held)
			for _, e := range g.CallEdges[call] {
				if !e.Go && !e.Defer && e.Held == nil {
					e.Held = held
				}
			}
		}
		return true
	})
}

// composeOrder extends the direct order edges with call-chain
// compositions: a lock held at a call site orders before every lock the
// callee transitively acquires. Go edges are excluded (the spawned body
// runs on another goroutine, which does not inherit the caller's locks)
// and defer edges carry no held set (they run at exit).
func (g *Graph) composeOrder() {
	for _, n := range g.Nodes {
		for _, e := range n.Edges {
			if e.Go || e.Defer || len(e.Held) == 0 {
				continue
			}
			cs := e.Callee.Summary
			if cs == nil || len(cs.Acquires) == 0 {
				continue
			}
			acquired := make([]string, 0, len(cs.Acquires))
			for root := range cs.Acquires {
				acquired = append(acquired, root)
			}
			sort.Strings(acquired)
			for _, h := range e.Held {
				for _, a := range acquired {
					if a == h {
						continue
					}
					g.orderEdges = append(g.orderEdges, OrderEdge{
						Outer: h, Inner: a, Pos: e.Site.Pos(), Pkg: n.Pkg, Via: e.Callee.Name,
					})
				}
			}
		}
	}
}

// sccs returns the strongly connected components of the call graph in
// reverse topological order (callees before callers), via an iterative
// Tarjan over the deterministic node/edge order.
func (g *Graph) sccs() [][]*Node {
	index := make(map[*Node]int, len(g.Nodes))
	low := make(map[*Node]int, len(g.Nodes))
	onStack := make(map[*Node]bool, len(g.Nodes))
	var stack []*Node
	var out [][]*Node
	counter := 0

	type frame struct {
		n *Node
		i int // next edge index to explore
	}
	for _, root := range g.Nodes {
		if _, seen := index[root]; seen {
			continue
		}
		frames := []frame{{n: root}}
		index[root] = counter
		low[root] = counter
		counter++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.i < len(f.n.Edges) {
				w := f.n.Edges[f.i].Callee
				f.i++
				if _, seen := index[w]; !seen {
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{n: w})
				} else if onStack[w] && index[w] < low[f.n] {
					low[f.n] = index[w]
				}
				continue
			}
			// f.n finished: pop its SCC if it is a root, then propagate
			// its lowlink to the parent frame.
			if low[f.n] == index[f.n] {
				var scc []*Node
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					scc = append(scc, w)
					if w == f.n {
						break
					}
				}
				// Restore deterministic in-SCC iteration order.
				sort.Slice(scc, func(i, j int) bool { return scc[i].Index < scc[j].Index })
				out = append(out, scc)
			}
			done := *f
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[done.n] < low[p.n] {
					low[p.n] = low[done.n]
				}
			}
		}
	}
	return out
}
