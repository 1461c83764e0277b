package callgraph

import (
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/greenps/greenps/internal/analysis/framework"
)

var (
	graphOnce sync.Once
	graph     *Graph
	graphErr  error
)

// testGraph loads the fixture package once and returns its summarized
// call graph.
func testGraph(t *testing.T) *Graph {
	t.Helper()
	graphOnce.Do(func() {
		dir, err := filepath.Abs(filepath.Join("testdata", "graph"))
		if err != nil {
			graphErr = err
			return
		}
		pkg, err := framework.LoadFixture(dir, "fixture/callgraph")
		if err != nil {
			graphErr = err
			return
		}
		graph = Build([]*framework.Package{pkg})
		graph.Summarize()
	})
	if graphErr != nil {
		t.Fatalf("loading fixture: %v", graphErr)
	}
	return graph
}

// node finds a node by exact name.
func node(t *testing.T, g *Graph, name string) *Node {
	t.Helper()
	for _, n := range g.Nodes {
		if n.Name == name {
			return n
		}
	}
	var names []string
	for _, n := range g.Nodes {
		if !n.External() {
			names = append(names, n.Name)
		}
	}
	t.Fatalf("no node named %q; have: %s", name, strings.Join(names, ", "))
	return nil
}

func TestTransitiveBlocking(t *testing.T) {
	g := testGraph(t)
	for _, name := range []string{"cg.Leaf", "cg.Mid", "cg.Top"} {
		if s := node(t, g, name).Summary; !s.MayBlock {
			t.Errorf("%s: MayBlock = false, want true", name)
		}
	}
	top := node(t, g, "cg.Top").Summary
	if got := top.BlockChain(); !strings.Contains(got, "cg.Mid") || !strings.Contains(got, "channel send") {
		t.Errorf("Top.BlockChain() = %q, want chain through cg.Mid to channel send", got)
	}
}

func TestRecursionConverges(t *testing.T) {
	g := testGraph(t)
	// Even blocks locally; Odd only through the Even/Odd cycle — the SCC
	// fixpoint must carry the fact around the loop.
	if s := node(t, g, "cg.Even").Summary; !s.MayBlock {
		t.Error("Even: MayBlock = false, want true")
	}
	if s := node(t, g, "cg.Odd").Summary; !s.MayBlock {
		t.Error("Odd: MayBlock = false (fact did not cross the recursive cycle), want true")
	}
}

func TestMethodValueEdge(t *testing.T) {
	g := testGraph(t)
	n := node(t, g, "cg.MethodValue")
	if !hasCallee(n, "cg.R.Block") {
		t.Fatalf("MethodValue: no edge to cg.R.Block through the method value; edges: %v", calleeNames(n))
	}
	if !n.Summary.MayBlock {
		t.Error("MethodValue: MayBlock = false, want true (through method value)")
	}
}

func TestClosureCapturingReceiver(t *testing.T) {
	g := testGraph(t)
	n := node(t, g, "cg.R.Closure")
	if !hasCallee(n, "cg.R.Closure$1") {
		t.Fatalf("Closure: no edge to its literal; edges: %v", calleeNames(n))
	}
	if !n.Summary.MayBlock {
		t.Error("Closure: MayBlock = false, want true (literal sends on captured receiver's channel)")
	}
}

func TestDeferredCallBlocks(t *testing.T) {
	g := testGraph(t)
	n := node(t, g, "cg.DeferBlock")
	if !n.Summary.MayBlock {
		t.Error("DeferBlock: MayBlock = false, want true (deferred blocking call runs at exit)")
	}
	for _, e := range n.Edges {
		if e.Callee.Name == "cg.R.Block" && !e.Defer {
			t.Error("DeferBlock: edge to R.Block not marked Defer")
		}
	}
}

func TestGoEdgeDoesNotPropagateBlocking(t *testing.T) {
	g := testGraph(t)
	s := node(t, g, "cg.SpawnOnly").Summary
	if s.MayBlock {
		t.Error("SpawnOnly: MayBlock = true, want false (blocking happens on the spawned goroutine)")
	}
}

func TestInterfaceCHA(t *testing.T) {
	g := testGraph(t)
	n := node(t, g, "cg.Dispatch")
	if !hasCallee(n, "cg.BlockingDoer.Do") || !hasCallee(n, "cg.QuietDoer.Do") {
		t.Fatalf("Dispatch: CHA missed an implementation; edges: %v", calleeNames(n))
	}
	if !n.Summary.MayBlock {
		t.Error("Dispatch: MayBlock = false, want true (one implementation blocks)")
	}
}

func TestFuncVarReassignment(t *testing.T) {
	g := testGraph(t)
	n := node(t, g, "cg.FuncVar")
	if !hasCallee(n, "cg.R.Block") {
		t.Fatalf("FuncVar: reassigned function value not resolved; edges: %v", calleeNames(n))
	}
}

func TestParamCallWidens(t *testing.T) {
	g := testGraph(t)
	n := node(t, g, "cg.CallsParam")
	if len(n.Edges) != 0 {
		t.Errorf("CallsParam: edges = %v, want none (a parameter resolves to nothing)", calleeNames(n))
	}
	if n.Summary.MayBlock {
		t.Error("CallsParam: MayBlock = true, want false (widening must not invent facts)")
	}
}

func TestComposedLockOrder(t *testing.T) {
	g := testGraph(t)
	n := node(t, g, "cg.Two.NestedViaCall")
	if !n.Summary.Acquires["Two.a"] || !n.Summary.Acquires["Two.b"] {
		t.Fatalf("NestedViaCall: Acquires = %v, want Two.a and Two.b", n.Summary.Acquires)
	}
	found := false
	for _, e := range g.OrderEdges() {
		if e.Outer == "Two.a" && e.Inner == "Two.b" && e.Via == "cg.Two.LockB" {
			found = true
		}
	}
	if !found {
		t.Errorf("no composed order edge Two.a -> Two.b via cg.Two.LockB; edges: %+v", g.OrderEdges())
	}
}

func TestTaintThroughHelper(t *testing.T) {
	g := testGraph(t)
	if s := node(t, g, "cg.now").Summary; !s.Taints {
		t.Error("now: Taints = false, want true (returns time.Now())")
	}
	s := node(t, g, "cg.Stamp").Summary
	if !s.Taints {
		t.Error("Stamp: Taints = false, want true (launders clock through helper)")
	}
	if !strings.Contains(s.TaintDesc, "wall-clock") {
		t.Errorf("Stamp: TaintDesc = %q, want wall-clock source named", s.TaintDesc)
	}
	if s := node(t, g, "cg.Clean").Summary; s.Taints {
		t.Errorf("Clean: Taints = true (desc %q), want false", s.TaintDesc)
	}
}

func hasCallee(n *Node, name string) bool {
	for _, e := range n.Edges {
		if e.Callee.Name == name {
			return true
		}
	}
	return false
}

func calleeNames(n *Node) []string {
	var out []string
	for _, e := range n.Edges {
		out = append(out, e.Callee.Name)
	}
	return out
}
