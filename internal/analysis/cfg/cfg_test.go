package cfg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// build parses src as the body of a function and builds its CFG.
func build(t *testing.T, body string) *Graph {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "t.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return New(f.Decls[0].(*ast.FuncDecl).Body)
}

// reaches reports whether to is reachable from from over successor edges.
func reaches(from, to *Block) bool {
	seen := make(map[*Block]bool)
	var visit func(*Block) bool
	visit = func(b *Block) bool {
		if b == to {
			return true
		}
		if seen[b] {
			return false
		}
		seen[b] = true
		for _, s := range b.Succs {
			if visit(s) {
				return true
			}
		}
		return false
	}
	return visit(from)
}

// nodeCount sums nodes over the reachable blocks.
func nodeCount(g *Graph) int {
	n := 0
	for _, b := range g.ReversePostorder() {
		n += len(b.Nodes)
	}
	return n
}

func TestStraightLine(t *testing.T) {
	g := build(t, "x := 1\ny := 2\n_ = x + y")
	if len(g.Entry().Succs) != 1 || g.Entry().Succs[0] != g.Exit {
		t.Fatalf("straight-line body should edge entry directly to exit:\n%s", g)
	}
	if len(g.Entry().Nodes) != 3 {
		t.Fatalf("entry should hold all 3 statements, got %d", len(g.Entry().Nodes))
	}
}

func TestIfElse(t *testing.T) {
	g := build(t, "x := 1\nif x > 0 {\nx = 2\n} else {\nx = 3\n}\n_ = x")
	entry := g.Entry()
	// Entry holds the init statement and the condition, then branches two
	// ways; both arms converge on the after block.
	if len(entry.Succs) != 2 {
		t.Fatalf("if should branch 2 ways from the condition block:\n%s", g)
	}
	then, els := entry.Succs[0], entry.Succs[1]
	if len(then.Succs) != 1 || len(els.Succs) != 1 || then.Succs[0] != els.Succs[0] {
		t.Fatalf("both arms should converge:\n%s", g)
	}
	after := then.Succs[0]
	if len(after.Nodes) != 1 {
		t.Fatalf("after block should hold the trailing statement:\n%s", g)
	}
}

func TestIfWithoutElse(t *testing.T) {
	g := build(t, "x := 1\nif x > 0 {\nx = 2\n}\n_ = x")
	entry := g.Entry()
	if len(entry.Succs) != 2 {
		t.Fatalf("if without else should still branch 2 ways:\n%s", g)
	}
}

func TestIfBothArmsReturn(t *testing.T) {
	g := build(t, "x := 1\nif x > 0 {\nreturn\n} else {\nreturn\n}")
	for _, blk := range g.ReversePostorder() {
		if blk != g.Exit && len(blk.Succs) == 0 {
			t.Fatalf("no reachable dead ends expected:\n%s", g)
		}
	}
	if !reaches(g.Entry(), g.Exit) {
		t.Fatalf("exit unreachable:\n%s", g)
	}
}

func TestForLoop(t *testing.T) {
	g := build(t, "s := 0\nfor i := 0; i < 10; i++ {\ns += i\n}\n_ = s")
	// Find the loop head: a block with two successors (body and after)
	// that is also the target of a back edge.
	var head *Block
	for _, blk := range g.ReversePostorder() {
		if len(blk.Succs) == 2 {
			for _, p := range blk.Preds {
				if p.Index > blk.Index {
					head = blk
				}
			}
		}
	}
	if head == nil {
		t.Fatalf("no loop head with a back edge found:\n%s", g)
	}
	if !reaches(g.Entry(), g.Exit) {
		t.Fatalf("exit unreachable:\n%s", g)
	}
}

func TestForBreakContinue(t *testing.T) {
	g := build(t, "for i := 0; i < 10; i++ {\nif i == 3 {\ncontinue\n}\nif i == 5 {\nbreak\n}\n}\n_ = 1")
	if !reaches(g.Entry(), g.Exit) {
		t.Fatalf("exit unreachable:\n%s", g)
	}
	// All statements survive into reachable blocks: init, cond, 2 ifs
	// (cond each), continue, break, post, trailing assign.
	if nodeCount(g) < 8 {
		t.Fatalf("expected >= 8 nodes in reachable blocks, got %d:\n%s", nodeCount(g), g)
	}
}

func TestInfiniteLoopWithoutBreak(t *testing.T) {
	g := build(t, "for {\n_ = 1\n}")
	if reaches(g.Entry(), g.Exit) {
		t.Fatalf("for{} without break must not reach exit:\n%s", g)
	}
}

func TestLabeledBreakContinue(t *testing.T) {
	g := build(t, "outer:\nfor i := 0; i < 3; i++ {\nfor j := 0; j < 3; j++ {\nif j == 1 {\ncontinue outer\n}\nif j == 2 {\nbreak outer\n}\n}\n}\n_ = 1")
	if !reaches(g.Entry(), g.Exit) {
		t.Fatalf("exit unreachable:\n%s", g)
	}
}

func TestRange(t *testing.T) {
	g := build(t, "s := []int{1, 2}\nt := 0\nfor _, v := range s {\nt += v\n}\n_ = t")
	// The range head holds the RangeStmt marker and branches to body and
	// after.
	var head *Block
	for _, blk := range g.ReversePostorder() {
		for _, n := range blk.Nodes {
			if _, ok := n.(*ast.RangeStmt); ok {
				head = blk
			}
		}
	}
	if head == nil || len(head.Succs) != 2 {
		t.Fatalf("range head missing or malformed:\n%s", g)
	}
	if !reaches(g.Entry(), g.Exit) {
		t.Fatalf("exit unreachable:\n%s", g)
	}
}

func TestSwitchFallthrough(t *testing.T) {
	g := build(t, "x := 1\nswitch x {\ncase 1:\nx = 10\nfallthrough\ncase 2:\nx = 20\ndefault:\nx = 30\n}\n_ = x")
	if !reaches(g.Entry(), g.Exit) {
		t.Fatalf("exit unreachable:\n%s", g)
	}
	// With a default present the dispatch block must not edge straight to
	// after: 3 clause successors exactly.
	entry := g.Entry()
	if len(entry.Succs) != 3 {
		t.Fatalf("switch with default should have exactly its 3 clauses as successors:\n%s", g)
	}
}

func TestSelect(t *testing.T) {
	g := build(t, "ch := make(chan int)\ndone := make(chan int)\nselect {\ncase v := <-ch:\n_ = v\ncase <-done:\nreturn\n}\n_ = 1")
	var marker *Block
	for _, blk := range g.ReversePostorder() {
		for _, n := range blk.Nodes {
			if _, ok := n.(*ast.SelectStmt); ok {
				marker = blk
			}
		}
	}
	if marker == nil {
		t.Fatalf("select marker not found:\n%s", g)
	}
	if len(marker.Succs) != 2 {
		t.Fatalf("select should branch to its 2 clauses, got %d:\n%s", len(marker.Succs), g)
	}
	if !reaches(g.Entry(), g.Exit) {
		t.Fatalf("exit unreachable:\n%s", g)
	}
}

func TestEmptySelectBlocksForever(t *testing.T) {
	g := build(t, "select {}")
	if reaches(g.Entry(), g.Exit) {
		t.Fatalf("select{} must not reach exit:\n%s", g)
	}
}

func TestDeferCollected(t *testing.T) {
	g := build(t, "defer func() {}()\nx := 1\nif x > 0 {\ndefer func() {}()\n}\n_ = x")
	if len(g.Defers) != 2 {
		t.Fatalf("expected 2 defers collected, got %d", len(g.Defers))
	}
}

func TestGoto(t *testing.T) {
	g := build(t, "x := 0\nloop:\nx++\nif x < 3 {\ngoto loop\n}\n_ = x")
	if !reaches(g.Entry(), g.Exit) {
		t.Fatalf("exit unreachable:\n%s", g)
	}
	// The goto must create a back edge to the labeled block.
	back := false
	for _, blk := range g.ReversePostorder() {
		for _, s := range blk.Succs {
			if s.Index < blk.Index && s != g.Exit {
				back = true
			}
		}
	}
	if !back {
		t.Fatalf("goto back edge missing:\n%s", g)
	}
}

func TestPanicTerminates(t *testing.T) {
	g := build(t, "x := 1\nif x > 0 {\npanic(\"boom\")\n}\n_ = x")
	// The panic block must have no successors: panicking paths do not
	// reach the exit.
	var panicBlock *Block
	for _, blk := range g.ReversePostorder() {
		for _, n := range blk.Nodes {
			if es, ok := n.(*ast.ExprStmt); ok && isPanic(es.X) {
				panicBlock = blk
			}
		}
	}
	if panicBlock == nil {
		t.Fatalf("panic block not found:\n%s", g)
	}
	if len(panicBlock.Succs) != 0 {
		t.Fatalf("panic block must terminate, has succs:\n%s", g)
	}
}

func TestUnreachableAfterReturn(t *testing.T) {
	g := build(t, "return\n_ = 1")
	// The dead statement still gets a block, but it is not reachable.
	for _, blk := range g.ReversePostorder() {
		for _, n := range blk.Nodes {
			if _, ok := n.(*ast.AssignStmt); ok {
				t.Fatalf("statement after return should be unreachable:\n%s", g)
			}
		}
	}
}

func TestInspectShallowSkipsFuncLitAndMarkers(t *testing.T) {
	g := build(t, "s := []int{1}\nfor _, v := range s {\n_ = v\n}")
	var marker *ast.RangeStmt
	for _, blk := range g.ReversePostorder() {
		for _, n := range blk.Nodes {
			if r, ok := n.(*ast.RangeStmt); ok {
				marker = r
			}
		}
	}
	if marker == nil {
		t.Fatal("range marker not found")
	}
	sawBody := false
	InspectShallow(marker, func(n ast.Node) bool {
		if _, ok := n.(*ast.AssignStmt); ok {
			sawBody = true
		}
		return true
	})
	if sawBody {
		t.Fatal("InspectShallow descended into the range body")
	}

	g2 := build(t, "f := func() int {\nreturn 1\n}\n_ = f")
	sawReturn := false
	for _, blk := range g2.ReversePostorder() {
		for _, n := range blk.Nodes {
			InspectShallow(n, func(m ast.Node) bool {
				if _, ok := m.(*ast.ReturnStmt); ok {
					sawReturn = true
				}
				return true
			})
		}
	}
	if sawReturn {
		t.Fatal("InspectShallow descended into a function literal body")
	}
}

// TestForwardSolver checks a tiny reaching analysis: which string
// constants can flow to each block over a diamond.
func TestForwardSolver(t *testing.T) {
	g := build(t, "x := 1\nif x > 0 {\nx = 2\n} else {\nx = 3\n}\n_ = x")
	union := func(a, b map[int]bool) map[int]bool {
		out := make(map[int]bool, len(a)+len(b))
		for k := range a {
			out[k] = true
		}
		for k := range b {
			out[k] = true
		}
		return out
	}
	equal := func(a, b map[int]bool) bool {
		if len(a) != len(b) {
			return false
		}
		for k := range a {
			if !b[k] {
				return false
			}
		}
		return true
	}
	in := Forward(g, Analysis[map[int]bool]{
		Boundary: map[int]bool{},
		Join:     union,
		Transfer: func(blk *Block, f map[int]bool) map[int]bool {
			return union(f, map[int]bool{blk.Index: true})
		},
		Equal: equal,
	})
	exitIn := in[g.Exit]
	// Both arms of the diamond must reach the exit's in-fact.
	seen := 0
	for _, blk := range g.Entry().Succs {
		if exitIn[blk.Index] {
			seen++
		}
	}
	if seen != 2 {
		t.Fatalf("expected both arms in the exit's in-fact, got %d:\n%v\n%s", seen, exitIn, g)
	}
}

// TestBackwardSolver checks an all-paths property: "every path from here
// ends in a return" is false before a loop that can diverge... here we
// instead verify AND-join behavior over the diamond: a fact seeded only
// at the exit must reach the entry through both arms.
func TestBackwardSolver(t *testing.T) {
	g := build(t, "x := 1\nif x > 0 {\nx = 2\n} else {\nx = 3\n}\n_ = x")
	in := Backward(g, Analysis[bool]{
		Boundary: true,
		Join:     func(a, b bool) bool { return a && b },
		Transfer: func(blk *Block, f bool) bool { return f },
		Equal:    func(a, b bool) bool { return a == b },
	})
	if !in[g.Entry()] {
		t.Fatalf("all-paths fact should hold at entry:\n%s", g)
	}

	// With one arm panicking, the boundary still applies at the dead end,
	// so an AND over "reaches a return" must use a transfer that kills the
	// fact in panic blocks; verify the solver exposes that distinction.
	g2 := build(t, "x := 1\nif x > 0 {\npanic(\"no\")\n}\n_ = x")
	in2 := Backward(g2, Analysis[bool]{
		Boundary: true,
		Join:     func(a, b bool) bool { return a && b },
		Transfer: func(blk *Block, f bool) bool {
			for _, n := range blk.Nodes {
				if es, ok := n.(*ast.ExprStmt); ok && isPanic(es.X) {
					return false
				}
			}
			return f
		},
		Equal: func(a, b bool) bool { return a == b },
	})
	if in2[g2.Entry()] {
		t.Fatalf("panic arm should kill the all-paths fact at entry:\n%s", g2)
	}
}

// TestBackwardSolverLoop guards the optimistic initialization: a loop
// body is visited before its head in postorder, and seeding it from the
// boundary-less bottom would inject a false that an AND-join could never
// recover from. Every path through the loop reaches the exit, so the
// all-paths fact must hold at the entry.
func TestBackwardSolverLoop(t *testing.T) {
	g := build(t, "x := 1\nfor i := 0; i < 3; i++ {\nx = 2\n}\n_ = x")
	in := Backward(g, Analysis[bool]{
		Boundary: true,
		Join:     func(a, b bool) bool { return a && b },
		Transfer: func(blk *Block, f bool) bool { return f },
		Equal:    func(a, b bool) bool { return a == b },
	})
	if !in[g.Entry()] {
		t.Fatalf("all-paths fact should survive the loop:\n%s", g)
	}

	// An exit-free cycle has no path to the exit; its blocks stay out of
	// the result map rather than receiving a made-up fact.
	g2 := build(t, "for {\nx := 1\n_ = x\n}")
	in2 := Backward(g2, Analysis[bool]{
		Boundary: true,
		Join:     func(a, b bool) bool { return a && b },
		Transfer: func(blk *Block, f bool) bool { return f },
		Equal:    func(a, b bool) bool { return a == b },
	})
	for blk := range in2 {
		for _, n := range blk.Nodes {
			if _, ok := n.(*ast.AssignStmt); ok {
				t.Fatalf("exit-free loop body should be absent from the result:\n%s", g2)
			}
		}
	}
}

func TestStringDump(t *testing.T) {
	g := build(t, "x := 1\n_ = x")
	s := g.String()
	if !strings.Contains(s, "entry") || !strings.Contains(s, "exit") {
		t.Fatalf("dump should name entry and exit blocks: %q", s)
	}
}
