// Package poset implements the partially-ordered-set data structure of
// Section IV-C.2: a DAG whose nodes are GIFs (groups of identical filters)
// ordered by the superset relation over their bit-vector profiles. Parent
// nodes cover (are supersets of) their children; nodes with intersecting or
// empty relationships are siblings.
//
// CRAM uses the poset for two things: O(1) lookup of the GIFs covered by a
// candidate (one-to-many clustering, Section IV-C.3) and pruned
// breadth-first closest-pair search (Section IV-C.2) — for the INTERSECT,
// IOS, and IOU metrics a zero closeness at a node proves every descendant
// also has zero closeness, and the search below a child can stop once the
// closeness value starts to decrease.
//
// Profiles that sank no publications cannot be ordered meaningfully (they
// are subsets of everything); callers keep them out of the poset and
// allocate them separately.
package poset

import (
	"fmt"
	"slices"
	"sort"

	"github.com/greenps/greenps/internal/bitvector"
)

// Node is a poset element. The zero Node is invalid; nodes are created by
// Insert.
type Node struct {
	// ID uniquely names the node (CRAM uses GIF IDs).
	ID string
	// Profile is the node's bit-vector profile; nil only for the virtual
	// root.
	Profile *bitvector.Profile
	// Payload carries the caller's value (CRAM stores the *GIF here).
	Payload any

	// parents and children are the covering edges, each sorted by ID (IDs
	// are unique within a poset). The slices are copy-on-write — link and
	// unlink install a fresh slice and never write to an installed one — so
	// Children and Parents hand them out as they are: a caller's slice keeps
	// its contents whatever happens to the poset afterwards, and searches pay
	// neither a copy nor a sort per visited node.
	parents  []*Node
	children []*Node

	// slot is the node's dense index among the poset's live nodes (the root
	// holds 0): assigned at Insert, handed to a later Insert after Remove.
	// Walks mark visited nodes by it in a bitmap of their own (visited).
	slot int
}

// Children returns the node's direct children sorted by ID (deterministic).
// The slice is shared and must not be modified.
func (n *Node) Children() []*Node { return n.children }

// Parents returns the node's direct parents sorted by ID. The slice is
// shared and must not be modified.
func (n *Node) Parents() []*Node { return n.parents }

// find returns n's position in the ID-sorted list, or where it would go.
func find(list []*Node, n *Node) (int, bool) {
	i := sort.Search(len(list), func(i int) bool { return list[i].ID >= n.ID })
	return i, i < len(list) && list[i] == n
}

// with returns a copy of the ID-sorted list with n in it.
func with(list []*Node, n *Node) []*Node {
	i, ok := find(list, n)
	if ok {
		return list
	}
	out := make([]*Node, len(list)+1)
	copy(out, list[:i])
	out[i] = n
	copy(out[i+1:], list[i:])
	return out
}

// without returns a copy of the ID-sorted list with n left out.
func without(list []*Node, n *Node) []*Node {
	i, ok := find(list, n)
	if !ok {
		return list
	}
	return slices.Delete(slices.Clone(list), i, i+1)
}

// link adds the covering edge par -> ch; unlink removes it.
func link(par, ch *Node) {
	par.children = with(par.children, ch)
	ch.parents = with(ch.parents, par)
}

func unlink(par, ch *Node) {
	par.children = without(par.children, ch)
	ch.parents = without(ch.parents, par)
}

// visited is the set of nodes one walk has reached, one bit per slot. A walk
// makes its own — searches over a frozen poset run concurrently — and the
// poset must not be mutated while it is in use.
type visited []uint64

// mark adds n to the set and reports whether it was absent.
func (v visited) mark(n *Node) bool {
	w, bit := &v[n.slot/64], uint64(1)<<(uint(n.slot)%64)
	if *w&bit != 0 {
		return false
	}
	*w |= bit
	return true
}

// has reports whether n is in the set.
func (v visited) has(n *Node) bool {
	return v[n.slot/64]&(uint64(1)<<(uint(n.slot)%64)) != 0
}

// Poset is the DAG. It is not safe for concurrent use.
type Poset struct {
	root  *Node
	nodes map[string]*Node
	// slots is the high-water count of node slots handed out, the root's
	// included; free lists the slots of removed nodes, reused last-in
	// first-out so the count stays the peak number of live nodes.
	slots int
	free  []int
	// relateCount tallies Relate calls, the unit of work the paper's
	// Optimization 2 reduces; exposed for the E8 ablation experiment.
	relateCount int
}

// New returns an empty poset with a virtual universal root.
func New() *Poset {
	return &Poset{
		root:  &Node{ID: "<root>"},
		nodes: make(map[string]*Node),
		slots: 1,
	}
}

// newVisited returns an empty visited set over the poset's slots.
func (p *Poset) newVisited() visited { return make(visited, (p.slots+63)/64) }

// Len returns the number of real (non-root) nodes.
func (p *Poset) Len() int { return len(p.nodes) }

// Root returns the virtual root.
func (p *Poset) Root() *Node { return p.root }

// Node returns the node with the given ID, or nil.
func (p *Poset) Node(id string) *Node { return p.nodes[id] }

// RelateCount returns the number of relationship computations performed.
func (p *Poset) RelateCount() int { return p.relateCount }

// relate computes the relationship of a (non-root) profile pair, counting
// the work.
func (p *Poset) relate(a, b *bitvector.Profile) bitvector.Relationship {
	p.relateCount++
	return bitvector.Relate(a, b)
}

// Insert adds a node for the given profile. The profile must be non-empty
// and the ID unused. Insertion finds the minimal covering nodes (parents)
// and the maximal covered nodes (children) and rewires covering edges.
func (p *Poset) Insert(id string, prof *bitvector.Profile, payload any) (*Node, error) {
	if _, ok := p.nodes[id]; ok {
		return nil, fmt.Errorf("poset: node %q already present", id)
	}
	if prof == nil || prof.Empty() {
		return nil, fmt.Errorf("poset: node %q has an empty profile", id)
	}
	n := &Node{ID: id, Profile: prof, Payload: payload}

	parents, equal := p.findParents(prof)
	if equal != nil {
		return nil, fmt.Errorf("poset: node %q has a profile equal to existing node %q; group them into one GIF instead", id, equal.ID)
	}
	children := p.findChildren(parents, prof)

	for _, par := range parents {
		for _, ch := range children {
			unlink(par, ch)
		}
	}
	for _, par := range parents {
		link(par, n)
	}
	for _, ch := range children {
		link(n, ch)
	}
	if k := len(p.free); k > 0 {
		n.slot, p.free = p.free[k-1], p.free[:k-1]
	} else {
		n.slot = p.slots
		p.slots++
	}
	p.nodes[id] = n
	return n, nil
}

// findParents locates the minimal nodes strictly covering prof: BFS from
// the root, descending into any node that covers prof; a covering node none
// of whose children cover prof is a parent. If a node with an equal profile
// exists it is returned separately so Insert can reject the duplicate.
func (p *Poset) findParents(prof *bitvector.Profile) (parents []*Node, equal *Node) {
	seen := p.newVisited() // the root is nobody's child: it needs no mark
	queue := []*Node{p.root}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		descended := false
		for _, ch := range cur.Children() {
			if seen.has(ch) {
				descended = true // covering child already being explored
				continue
			}
			switch p.relate(ch.Profile, prof) {
			case bitvector.RelEqual:
				return nil, ch
			case bitvector.RelSuperset:
				seen.mark(ch)
				queue = append(queue, ch)
				descended = true
			}
		}
		if !descended {
			parents = append(parents, cur)
		}
	}
	if len(parents) == 0 {
		parents = []*Node{p.root}
	}
	return p.dedupeMinimal(parents), nil
}

// dedupeMinimal removes duplicates while preserving order.
func (p *Poset) dedupeMinimal(in []*Node) []*Node {
	seen := p.newVisited()
	out := in[:0]
	for _, n := range in {
		if seen.mark(n) {
			out = append(out, n)
		}
	}
	return out
}

// findChildren locates the maximal nodes strictly covered by prof,
// searching the descendants of the chosen parents. A node that is covered
// is taken whole (no need to descend); a node that merely intersects may
// still hide covered descendants, so the search continues below it; a node
// with an empty relationship cannot (its descendants are subsets of it).
func (p *Poset) findChildren(parents []*Node, prof *bitvector.Profile) []*Node {
	var children []*Node
	seen := p.newVisited()
	var queue []*Node
	enqueue := func(n *Node) {
		if seen.mark(n) {
			queue = append(queue, n)
		}
	}
	for _, par := range parents {
		for _, ch := range par.Children() {
			enqueue(ch)
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		r := p.relate(prof, cur.Profile)
		switch r {
		case bitvector.RelSuperset:
			children = append(children, cur)
		case bitvector.RelIntersect:
			for _, ch := range cur.Children() {
				enqueue(ch)
			}
		default:
			// Equal cannot happen (IDs are unique per fingerprint);
			// Subset/Empty hide no covered descendants.
		}
	}
	// Keep only maximal nodes: drop any candidate that is a descendant of
	// another candidate.
	return p.maximalOnly(children)
}

// maximalOnly filters a candidate set down to nodes not reachable from any
// other candidate.
func (p *Poset) maximalOnly(cands []*Node) []*Node {
	if len(cands) <= 1 {
		return cands
	}
	candSet, seen := p.newVisited(), p.newVisited()
	for _, c := range cands {
		candSet.mark(c)
	}
	var out []*Node
	for _, c := range cands {
		reachable := false
		// BFS upward from c looking for another candidate.
		clear(seen)
		seen.mark(c)
		queue := []*Node{c}
		for len(queue) > 0 && !reachable {
			cur := queue[0]
			queue = queue[1:]
			for _, par := range cur.parents {
				if seen.has(par) {
					continue
				}
				if candSet.has(par) {
					reachable = true
					break
				}
				seen.mark(par)
				queue = append(queue, par)
			}
		}
		if !reachable {
			out = append(out, c)
		}
	}
	return out
}

// Remove deletes a node, reconnecting each of its parents to each of its
// children. The resulting DAG may contain redundant (transitive) edges;
// searches remain correct because they track visited nodes.
func (p *Poset) Remove(id string) error {
	n, ok := p.nodes[id]
	if !ok {
		return fmt.Errorf("poset: node %q not present", id)
	}
	parents, children := n.parents, n.children
	for _, par := range parents {
		unlink(par, n)
	}
	for _, ch := range children {
		unlink(n, ch)
	}
	for _, par := range parents {
		for _, ch := range children {
			link(par, ch)
		}
	}
	// Children left parentless attach to the root.
	for _, ch := range children {
		if len(ch.parents) == 0 {
			link(p.root, ch)
		}
	}
	delete(p.nodes, id)
	p.free = append(p.free, n.slot)
	return nil
}

// CoveredBy returns the nodes strictly covered by the given node's profile:
// its descendants in the DAG. Used by one-to-many clustering, where the
// lookup of covered GIFs is O(1)-per-node via the child links.
func (p *Poset) CoveredBy(n *Node) []*Node {
	var out []*Node
	seen := p.newVisited()
	queue := make([]*Node, 0, len(n.children))
	for _, ch := range n.children {
		queue = append(queue, ch)
		seen.mark(ch)
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		out = append(out, cur)
		for _, ch := range cur.children {
			if seen.mark(ch) {
				queue = append(queue, ch)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SearchResult reports the outcome of a pruned closest-pair search.
type SearchResult struct {
	// Best is the closest admissible node (nil when none has positive
	// closeness).
	Best *Node
	// Closeness is Best's metric value.
	Closeness float64
	// Computations counts the closeness evaluations the search made.
	Computations int
}

// SearchClosest is SearchClosestOpts as the paper runs it: both prunings on.
func (p *Poset) SearchClosest(query *bitvector.Profile, metric bitvector.Metric, skip func(*Node) bool) SearchResult {
	return p.SearchClosestOpts(query, metric, skip, true)
}

// SearchClosestOpts finds the admissible node with the highest closeness to
// the query profile, ties going to the lower ID. skip marks nodes that must
// not be returned (the query's own node, blacklisted pairs) — they are still
// traversed. The poset must not be mutated during the search; concurrent
// searches over a frozen poset are safe.
//
// The search is a breadth-first walk from the root, one level at a time:
// each node of the level has its not-yet-seen children evaluated in
// Children() order, and a child that is descended into joins the next level.
// Two prunings apply to the INTERSECT, IOS, and IOU metrics (never to XOR,
// whose closeness is positive even for empty relations — the paper's
// explanation for XOR's ≥75% longer computation time):
//
//   - Zero pruning (always on for those metrics): a node with closeness 0
//     has an empty relationship with the query, and every descendant is a
//     subset of the node, so the whole subtree is skipped. This pruning is
//     exact.
//   - Decrease pruning (pruneDecreasing, the paper's Optimization 2): stop
//     descending below a child whose closeness drops strictly under its
//     parent's, on the grounds that closeness rises toward the query's own
//     poset position and falls past it. This is a heuristic: on chains
//     whose closeness dips and then rises (possible for IOS/IOU) it can
//     miss the true maximum, trading exactness for the large search-space
//     reduction the paper reports. The pruned child itself is still
//     considered as a candidate.
func (p *Poset) SearchClosestOpts(query *bitvector.Profile, metric bitvector.Metric, skip func(*Node) bool, pruneDecreasing bool) SearchResult {
	var res SearchResult
	prunable := metric != bitvector.MetricXor

	type item struct {
		node      *Node
		closeness float64
	}
	seen := p.newVisited()
	level, next := []item{{node: p.root}}, []item(nil)
	for rootLevel := true; len(level) > 0; rootLevel = false {
		for _, it := range level {
			for _, ch := range it.node.Children() {
				if !seen.mark(ch) {
					continue
				}
				res.Computations++
				c := bitvector.Closeness(metric, query, ch.Profile)
				if prunable && c == 0 {
					continue // empty relation: all descendants empty too
				}
				// The candidate update breaks ties by ID (lower wins) —
				// important under XOR, where the capped maximum value
				// produces frequent exact ties.
				if !skip(ch) && (res.Best == nil || c > res.Closeness ||
					(c == res.Closeness && ch.ID < res.Best.ID)) {
					res.Best, res.Closeness = ch, c
				}
				if prunable && pruneDecreasing && !rootLevel && c < it.closeness {
					continue // closeness decreasing: candidate only, no descent
				}
				next = append(next, item{node: ch, closeness: c})
			}
		}
		level, next = next, level[:0]
	}
	// XOR assigns positive closeness to empty relations, so Best can be a
	// node with which the query shares nothing — the paper observes exactly
	// this defect; we do not mask it.
	return res
}

// Walk visits every node (excluding the root) in BFS order.
func (p *Poset) Walk(fn func(*Node)) {
	seen := p.newVisited()
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
			if seen.mark(ch) {
				queue = append(queue, ch)
			}
		}
	}
}

// CheckInvariants verifies structural soundness: every live node holds a
// slot of its own, every node is reachable from the root, every edge respects
// the superset order, and the graph is acyclic. Intended for tests; returns
// the first violation in node-ID order, so a broken graph produces the same
// witness on every run.
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
