package poset

import (
	"fmt"
	"sort"

	"github.com/greenps/greenps/internal/bitvector"
)

// Walk visits every node (excluding the root) in BFS order.
func (p *Poset) Walk(fn func(*Node)) {
	seen := make(visited, (p.slots+63)/64)
	queue := []*Node{p.root}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur != p.root {
			fn(cur)
		}
		// Enqueue in sorted order: the callback observes the visit order,
		// so it must not depend on map iteration.
		for _, ch := range cur.Children() {
			if seen.mark(ch.slot) {
				queue = append(queue, ch)
			}
		}
	}
}

// CheckInvariants verifies structural soundness: every live node holds a
// slot of its own and its profile's publisher summary, every node is
// reachable from the root, every edge respects the superset order, and the
// graph is acyclic. It returns the first violation in node-ID order, so a
// broken graph produces the same witness on every run.
func (p *Poset) CheckInvariants() error {
	ids := make([]string, 0, len(p.nodes))
	for id := range p.nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	// Slots first: the walks below mark nodes by them.
	taken := make([]bool, p.slots)
	taken[p.root.slot] = true
	for _, id := range ids {
		n := p.nodes[id]
		if n.slot < 0 || n.slot >= p.slots || taken[n.slot] {
			return fmt.Errorf("poset: node %s holds slot %d of %d, out of range or held by another node", n.ID, n.slot, p.slots)
		}
		taken[n.slot] = true
	}
	for _, s := range p.free {
		if s < 0 || s >= p.slots || taken[s] {
			return fmt.Errorf("poset: free slot %d of %d is out of range, held by a node or listed twice", s, p.slots)
		}
		taken[s] = true
	}
	if 1+len(p.nodes)+len(p.free) != p.slots {
		return fmt.Errorf("poset: %d slots handed out, but %d nodes, %d free and the root", p.slots, len(p.nodes), len(p.free))
	}
	for _, id := range ids {
		n := p.nodes[id]
		if want := n.Profile.PublisherMask(); n.pubs != want {
			return fmt.Errorf("poset: node %s holds publisher summary %#x, its profile's is %#x", n.ID, n.pubs, want)
		}
	}
	reached := 0
	p.Walk(func(*Node) { reached++ })
	if reached != len(p.nodes) {
		return fmt.Errorf("poset: %d nodes reachable, %d registered", reached, len(p.nodes))
	}
	for _, id := range ids {
		n := p.nodes[id]
		for _, ch := range n.Children() {
			r := bitvector.Relate(n.Profile, ch.Profile)
			if r != bitvector.RelSuperset {
				return fmt.Errorf("poset: edge %s -> %s has relationship %v, want superset", n.ID, ch.ID, r)
			}
			if _, ok := find(ch.parents, n); !ok {
				return fmt.Errorf("poset: edge %s -> %s missing back-link", n.ID, ch.ID)
			}
		}
	}
	// Acyclicity via DFS coloring.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[*Node]int)
	var visit func(n *Node) error
	visit = func(n *Node) error {
		color[n] = gray
		for _, ch := range n.Children() {
			switch color[ch] {
			case gray:
				return fmt.Errorf("poset: cycle through %s", ch.ID)
			case white:
				if err := visit(ch); err != nil {
					return err
				}
			}
		}
		color[n] = black
		return nil
	}
	return visit(p.root)
}
