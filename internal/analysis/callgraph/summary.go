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
	comms := selectComms(n.Body)
	ast.Inspect(n.Body, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		if desc, ok := blockingOp(n.Pkg.Info, m); ok && !comms[m] && f.blockDesc == "" {
			f.blockDesc = desc
		}
		return true
	})
	return f
}

// blockingOp classifies the operations that block the goroutine by
// themselves: a channel send or receive, a select without default and a
// range over a channel. Calls are classified by their callees instead.
func blockingOp(info *types.Info, m ast.Node) (string, bool) {
	switch x := m.(type) {
	case *ast.SendStmt:
		return "channel send", true
	case *ast.UnaryExpr:
		if x.Op == token.ARROW {
			return "channel receive", true
		}
	case *ast.SelectStmt:
		if !cfg.HasDefault(x) {
			return "select without default", true
		}
	case *ast.RangeStmt:
		if t := info.TypeOf(x.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				return "range over channel", true
			}
		}
	}
	return "", false
}

// selectComms collects each select clause's comm statement and the
// send or receive at its top: the select, not the comm, is where the
// goroutine blocks.
func selectComms(body *ast.BlockStmt) map[ast.Node]bool {
	out := make(map[ast.Node]bool)
	ast.Inspect(body, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		cc, ok := m.(*ast.CommClause)
		if !ok || cc.Comm == nil {
			return true
		}
		out[cc.Comm] = true
		switch c := cc.Comm.(type) {
		case *ast.ExprStmt:
			out[unparen(c.X)] = true
		case *ast.AssignStmt:
			for _, r := range c.Rhs {
				out[unparen(r)] = true
			}
		}
		return true
	})
	return out
}

// HeldSite is a call, channel send or receive, select without default or
// range over a channel reached with locks that may be held. Op describes
// a channel operation; it is empty for a call, whose blocking depends on
// its callees' summaries.
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

// lockset maps a lock's canonical root to its latest acquisition position
// on some path (may-analysis).
type lockset map[string]token.Pos

func (ls lockset) clone() lockset {
	out := make(lockset, len(ls))
	for k, v := range ls {
		out[k] = v
	}
	return out
}

// lockPre runs the intraprocedural lockset analysis over one body: a
// forward may-analysis whose join is union, so a lock counts as held at
// a merge if any incoming path holds it. A sweep over the stable
// in-facts then records (a) the lock roots the function acquires, (b)
// direct nested acquisition order edges, (c) the may-held lockset at
// every resolved call site (Edge.Held) and (d) the body's HeldSites.
// Go and defer statements are skipped: a spawned body runs outside the
// critical section, and deferred calls — `defer mu.Unlock()` included —
// run at exit, so a deferred unlock keeps its lock held to the end.
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
	comms := selectComms(n.Body)
	n.HeldSites = nil
	for _, b := range graph.Blocks {
		fact, ok := in[b]
		if !ok {
			continue // unreachable
		}
		cur := fact.clone()
		for _, node := range b.Nodes {
			mark := len(n.HeldSites)
			g.applyLocks(n, node, cur, true)
			if comms[node] {
				// The select blocks, not its comm: keep the comm's lock
				// effects and Edge.Held, drop its sites.
				n.HeldSites = n.HeldSites[:mark]
			}
		}
	}
}

// applyLocks applies one CFG node's lock effects; when record is true it
// also collects acquires, order edges, Edge.Held and held sites.
func (g *Graph) applyLocks(n *Node, node ast.Node, ls lockset, record bool) {
	switch node.(type) {
	case *ast.DeferStmt, *ast.GoStmt:
		return
	}
	cfg.InspectShallow(node, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			if record && len(ls) > 0 {
				if desc, ok := blockingOp(n.Pkg.Info, m); ok {
					n.HeldSites = append(n.HeldSites, HeldSite{Node: m, Op: desc, Held: ls.held()})
				}
			}
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
			site := HeldSite{Node: call, Held: ls.held()}
			roots := make([]string, len(site.Held))
			for i, h := range site.Held {
				roots[i] = h.Root
			}
			for _, e := range g.CallEdges[call] {
				if !e.Go && !e.Defer && e.Held == nil {
					e.Held = roots
				}
			}
			n.HeldSites = append(n.HeldSites, site)
		}
		return true
	})
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
