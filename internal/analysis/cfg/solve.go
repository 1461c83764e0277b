package cfg

// This file is the dataflow half of the package: a block ordering and a
// small generic forward fixpoint solver. The caller supplies its lattice
// as a type T plus join/transfer/equal functions; the solver iterates to
// a fixed point in reverse postorder, which converges in a handful of
// passes for reducible graphs — and Go's structured control flow (even
// with goto) produces small graphs, so no worklist machinery is needed.

import "slices"

// ReversePostorder returns the blocks reachable from the entry in
// reverse postorder of a depth-first search over successor edges: every
// block appears before its successors except on back edges, the
// canonical iteration order for forward dataflow.
func (g *Graph) ReversePostorder() []*Block {
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
	slices.Reverse(out)
	return out
}

// Analysis is one forward dataflow problem over a Graph. The fact type T
// is the caller's lattice element (a lockset, say).
type Analysis[T any] struct {
	// Boundary is the entry block's in-fact.
	Boundary T
	// Join combines facts where paths meet. It must be commutative,
	// associative, and monotone for the solver to terminate.
	Join func(T, T) T
	// Transfer pushes a fact through one block, in-fact to out-fact.
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
