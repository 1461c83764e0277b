package cfg

// This file is the dataflow half of the package: block orderings and a
// small generic fixpoint solver. Each analyzer supplies its own lattice
// as a type T plus join/transfer/equal functions; the solver iterates to
// a fixed point in reverse postorder (forward analyses) or postorder
// (backward analyses), which converges in a handful of passes for
// reducible graphs — and Go's structured control flow (even with goto)
// produces small graphs, so no worklist machinery is needed.

// ReversePostorder returns the blocks reachable from the entry in
// reverse postorder of a depth-first search over successor edges: every
// block appears before its successors except on back edges, the
// canonical iteration order for forward dataflow.
func (g *Graph) ReversePostorder() []*Block {
	post := g.Postorder()
	out := make([]*Block, len(post))
	for i, blk := range post {
		out[len(post)-1-i] = blk
	}
	return out
}

// Postorder returns the blocks reachable from the entry in depth-first
// postorder over successor edges, the canonical iteration order for
// backward dataflow.
func (g *Graph) Postorder() []*Block {
	seen := make([]bool, len(g.Blocks))
	var out []*Block
	var visit func(*Block)
	visit = func(blk *Block) {
		if seen[blk.Index] {
			return
		}
		seen[blk.Index] = true
		for _, s := range blk.Succs {
			visit(s)
		}
		out = append(out, blk)
	}
	visit(g.Entry())
	return out
}

// Analysis is one dataflow problem over a Graph. The fact type T is the
// analyzer's lattice element (a lockset, a liveness bit, ...).
type Analysis[T any] struct {
	// Boundary is the fact at the analysis boundary: the entry block's
	// in-fact for forward analyses, the exit/dead-end blocks' out-fact
	// for backward analyses.
	Boundary T
	// Join combines facts where paths meet. It must be commutative,
	// associative, and monotone for the solver to terminate.
	Join func(T, T) T
	// Transfer pushes a fact through one block: in-fact to out-fact for
	// forward analyses, out-fact to in-fact for backward ones.
	Transfer func(*Block, T) T
	// Equal detects the fixed point.
	Equal func(T, T) bool
}

// Forward solves a forward dataflow problem and returns each reachable
// block's in-fact (the fact holding just before the block's first node).
// Predecessors not yet visited contribute nothing to a join — the
// standard optimistic initialization — so the result is the least fixed
// point for union-style (may) lattices and the greatest for
// intersection-style (must) ones.
func Forward[T any](g *Graph, a Analysis[T]) map[*Block]T {
	order := g.ReversePostorder()
	in := make(map[*Block]T, len(order))
	out := make(map[*Block]T, len(order))
	haveOut := make(map[*Block]bool, len(order))
	for changed := true; changed; {
		changed = false
		for _, blk := range order {
			var fact T
			if blk == g.Entry() {
				fact = a.Boundary
			} else {
				first := true
				for _, p := range blk.Preds {
					if !haveOut[p] {
						continue
					}
					if first {
						fact = out[p]
						first = false
					} else {
						fact = a.Join(fact, out[p])
					}
				}
				if first {
					// No visited predecessor yet (loop head on the first
					// sweep): start from the boundary to stay conservative.
					fact = a.Boundary
				}
			}
			in[blk] = fact
			next := a.Transfer(blk, fact)
			if !haveOut[blk] || !a.Equal(out[blk], next) {
				out[blk] = next
				haveOut[blk] = true
				changed = true
			}
		}
	}
	return in
}

// Backward solves a backward dataflow problem and returns each reachable
// block's in-fact (the fact holding at the block's entry, i.e. after
// transferring backward through its nodes). The boundary fact applies at
// the exit block and at dead-end blocks (panic). Blocks from which no
// path reaches the exit (exit-free cycles) are absent from the result:
// no fact about "every path to the exit" is falsifiable there.
func Backward[T any](g *Graph, a Analysis[T]) map[*Block]T {
	order := g.Postorder()
	in := make(map[*Block]T, len(order))
	haveIn := make(map[*Block]bool, len(order))
	for changed := true; changed; {
		changed = false
		for _, blk := range order {
			var fact T
			if blk == g.Exit || len(blk.Succs) == 0 {
				fact = a.Boundary
			} else {
				first := true
				for _, s := range blk.Succs {
					if !haveIn[s] {
						continue
					}
					if first {
						fact = in[s]
						first = false
					} else {
						fact = a.Join(fact, in[s])
					}
				}
				if first {
					// No successor computed yet. Seeding from the boundary
					// here would poison must-analyses: a loop body visited
					// before its head would inject bottom into the cycle,
					// and an AND-join can never climb back up. Skip the
					// block; a later sweep reaches it once a successor has
					// a fact. Blocks on exit-free cycles never get one and
					// stay out of the result map — vacuously correct for a
					// backward analysis, since no path from them reaches
					// the exit.
					continue
				}
			}
			next := a.Transfer(blk, fact)
			if !haveIn[blk] || !a.Equal(in[blk], next) {
				in[blk] = next
				haveIn[blk] = true
				changed = true
			}
		}
	}
	return in
}
