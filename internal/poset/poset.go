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
// Each node keeps a one-word summary of the publishers its profile has
// entries for (bitvector.Profile.PublisherMask). A node whose summary shares
// no bit with the query's shares no publisher with it, so the walks answer
// it — closeness 0 in SearchClosest, RelEmpty in Insert's walks — without
// reading its profile, and still count it as a pairing considered. Two
// publishers hashed to one bit only cost the exact evaluation.
//
// Profiles that sank no publications cannot be ordered meaningfully (they
// are subsets of everything); callers keep them out of the poset and
// allocate them separately.
package poset

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

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
	// Walks mark visited nodes by it in a bitmap of their own (walk.seen).
	slot int
	// pubs is the profile's PublisherMask, taken at Insert: a node's profile
	// does not change while it is in the poset.
	pubs uint64
}

// Children returns the node's direct children sorted by ID (deterministic).
// The slice is shared and must not be modified.
func (n *Node) Children() []*Node { return n.children }

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

// visited is the set of nodes one walk has reached, one bit per slot. The
// poset must not be mutated while it is in use.
type visited []uint64

// mark adds the node holding slot to the set and reports whether it was
// absent.
func (v visited) mark(slot int) bool {
	w, bit := &v[slot/64], uint64(1)<<(uint(slot)%64)
	if *w&bit != 0 {
		return false
	}
	*w |= bit
	return true
}

// has reports whether the node holding slot is in the set.
func (v visited) has(slot int) bool {
	return v[slot/64]&(uint64(1)<<(uint(slot)%64)) != 0
}

// walk is the scratch of one walk over the poset: its visited set and its
// breadth-first queues. Walks take one from walks and give it back when they
// end, so that a steady state of searches allocates nothing. A walk owns its
// scratch while it runs — searches over a frozen poset run concurrently and
// share nothing — which is why the scratch is pooled, not kept on the Poset.
type walk struct {
	seen        visited
	queue       []*Node
	level, next []searchItem // SearchClosest's current and next levels
}

// searchItem is a node SearchClosest descends into, with its closeness.
type searchItem struct {
	node      *Node
	closeness float64
}

var walks = sync.Pool{New: func() any { return new(walk) }}

// startWalk takes a walk's scratch from the pool, its visited set empty and
// sized to the poset's slots and its queues empty.
func (p *Poset) startWalk() *walk {
	w := walks.Get().(*walk)
	n := (p.slots + 63) / 64
	if cap(w.seen) < n {
		w.seen = make(visited, n)
	} else {
		w.seen = w.seen[:n]
		clear(w.seen)
	}
	return w
}

// end gives the scratch back to the pool. The queues' used entries are
// cleared so that a pooled scratch keeps no node alive.
func (w *walk) end() {
	clear(w.queue)
	w.queue = w.queue[:0]
	walks.Put(w)
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
	// relateCount tallies the relationships Insert's walks considered, the
	// unit of work the paper's Optimization 2 reduces; exposed for the E8
	// ablation experiment. A pair whose publisher summaries share no bit is
	// answered RelEmpty without a Relate call and still counted, so the
	// count is the same with or without the summaries.
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

// RelateCount returns the number of relationships Insert's walks
// considered (see relateCount).
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
	n := &Node{ID: id, Profile: prof, Payload: payload, pubs: prof.PublisherMask()}

	parents, equal := p.findParents(n)
	if equal != nil {
		return nil, fmt.Errorf("poset: node %q has a profile equal to existing node %q; group them into one GIF instead", id, equal.ID)
	}
	children := p.findChildren(parents, n)
	if k := len(p.free); k > 0 {
		n.slot, p.free = p.free[k-1], p.free[:k-1]
	} else {
		n.slot = p.slots
		p.slots++
	}

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
	p.nodes[id] = n
	return n, nil
}

// findParents locates the minimal nodes strictly covering n's profile: BFS
// from the root, descending into any node that covers it; a covering node
// none of whose children cover it is a parent. If a node with an equal
// profile exists it is returned separately so Insert can reject the
// duplicate. A child whose publisher summary shares no bit with n's is
// RelEmpty (both profiles are non-empty) and is counted without a Relate.
//
// Every node enters the queue once (the root is nobody's child: it needs no
// mark), so no parent is listed twice.
func (p *Poset) findParents(n *Node) (parents []*Node, equal *Node) {
	w := p.startWalk()
	defer w.end()
	w.queue = append(w.queue, p.root)
	for i := 0; i < len(w.queue); i++ {
		cur := w.queue[i]
		descended := false
		for _, ch := range cur.Children() {
			if w.seen.has(ch.slot) {
				descended = true // covering child already being explored
				continue
			}
			if ch.pubs&n.pubs == 0 {
				p.relateCount++
				continue
			}
			switch p.relate(ch.Profile, n.Profile) {
			case bitvector.RelEqual:
				return nil, ch
			case bitvector.RelSuperset:
				w.seen.mark(ch.slot)
				w.queue = append(w.queue, ch)
				descended = true
			}
		}
		if !descended {
			parents = append(parents, cur)
		}
	}
	return parents, nil
}

// findChildren locates the maximal nodes strictly covered by n's profile,
// searching the descendants of the chosen parents. A node that is covered
// is taken whole (no need to descend); a node that merely intersects may
// still hide covered descendants, so the search continues below it; a node
// with an empty relationship cannot (its descendants are subsets of it).
// A node whose publisher summary shares no bit with n's is such a node: it
// is counted when it is reached, without a Relate, and not queued.
func (p *Poset) findChildren(parents []*Node, n *Node) []*Node {
	var children []*Node
	w := p.startWalk()
	enqueue := func(par *Node) {
		for _, ch := range par.Children() {
			if !w.seen.mark(ch.slot) {
				continue
			}
			if ch.pubs&n.pubs == 0 {
				p.relateCount++
				continue
			}
			w.queue = append(w.queue, ch)
		}
	}
	for _, par := range parents {
		enqueue(par)
	}
	for i := 0; i < len(w.queue); i++ {
		cur := w.queue[i]
		switch p.relate(n.Profile, cur.Profile) {
		case bitvector.RelSuperset:
			children = append(children, cur)
		case bitvector.RelIntersect:
			enqueue(cur)
		default:
			// Equal cannot happen (IDs are unique per fingerprint);
			// Subset/Empty hide no covered descendants.
		}
	}
	w.end()
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
	candSet, w := p.startWalk(), p.startWalk()
	defer candSet.end()
	defer w.end()
	for _, c := range cands {
		candSet.seen.mark(c.slot)
	}
	var out []*Node
	for _, c := range cands {
		reachable := false
		// BFS upward from c looking for another candidate.
		clear(w.seen)
		clear(w.queue)
		w.seen.mark(c.slot)
		w.queue = append(w.queue[:0], c)
		for i := 0; i < len(w.queue) && !reachable; i++ {
			for _, par := range w.queue[i].parents {
				if w.seen.has(par.slot) {
					continue
				}
				if candSet.seen.has(par.slot) {
					reachable = true
					break
				}
				w.seen.mark(par.slot)
				w.queue = append(w.queue, par)
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
	w := p.startWalk()
	defer w.end()
	// The breadth-first queue is the result: every node it takes in is a
	// descendant, taken in once.
	out := slices.Clone(n.children)
	for _, ch := range out {
		w.seen.mark(ch.slot)
	}
	for i := 0; i < len(out); i++ {
		for _, ch := range out[i].children {
			if w.seen.mark(ch.slot) {
				out = append(out, ch)
			}
		}
	}
	slices.SortFunc(out, func(a, b *Node) int { return strings.Compare(a.ID, b.ID) })
	return out
}

// SearchResult reports the outcome of a pruned closest-pair search.
type SearchResult struct {
	// Best is the closest admissible node (nil when none has positive
	// closeness).
	Best *Node
	// Closeness is Best's metric value.
	Closeness float64
	// Computations counts the closeness evaluations the search considered:
	// a child the publisher summaries answer as closeness 0, without an
	// evaluation, is counted too, so the count is the same with or without
	// the summaries.
	Computations int
}

// SearchClosest finds the admissible node with the highest closeness to
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
//     exact. A node whose publisher summary shares no bit with the query's
//     is answered as closeness 0 without its profile being read.
//   - Decrease pruning (the paper's Optimization 2): stop
//     descending below a child whose closeness drops strictly under its
//     parent's, on the grounds that closeness rises toward the query's own
//     poset position and falls past it. This is a heuristic: on chains
//     whose closeness dips and then rises (possible for IOS/IOU) it can
//     miss the true maximum, trading exactness for the large search-space
//     reduction the paper reports. The pruned child itself is still
//     considered as a candidate.
func (p *Poset) SearchClosest(query *bitvector.Profile, metric bitvector.Metric, skip func(*Node) bool) SearchResult {
	var res SearchResult
	prunable := metric != bitvector.MetricXor
	// Under XOR every summary meets the query's: a node's profile is never
	// empty, so its summary has a bit set.
	qpubs := ^uint64(0)
	if prunable {
		qpubs = query.PublisherMask()
	}

	w := p.startWalk()
	level, next := append(w.level[:0], searchItem{node: p.root}), w.next[:0]
	for rootLevel := true; len(level) > 0; rootLevel = false {
		for _, it := range level {
			for _, ch := range it.node.Children() {
				if !w.seen.mark(ch.slot) {
					continue
				}
				res.Computations++
				if ch.pubs&qpubs == 0 {
					continue // no publisher in common: closeness 0
				}
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
				if prunable && !rootLevel && c < it.closeness {
					continue // closeness decreasing: candidate only, no descent
				}
				next = append(next, searchItem{node: ch, closeness: c})
			}
		}
		clear(level)
		level, next = next, level[:0]
	}
	w.level, w.next = level, next
	w.end()
	// XOR assigns positive closeness to empty relations, so Best can be a
	// node with which the query shares nothing — the paper observes exactly
	// this defect; we do not mask it.
	return res
}
