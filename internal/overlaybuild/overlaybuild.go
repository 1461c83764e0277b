// Package overlaybuild implements Phase 3 of the paper: recursively
// constructing a tree overlay over the brokers allocated in Phase 2
// (Section V). Each allocated broker is mapped to a pseudo-subscription —
// the OR of the bit-vector profiles it services — and the Phase-2
// subscription allocation algorithm is invoked recursively, building the
// tree layer by layer with fewer and fewer brokers until a single root
// remains. Publishers initially connect to the root; GRAPE then relocates
// them (package grape).
//
// Three optimizations are applied after allocating each layer, just prior
// to the recursive invocation (Section V-A..C):
//
//  1. Eliminate pure forwarding brokers — a parent with a single child and
//     nothing else to serve is deallocated.
//  2. Takeover children broker roles — a parent with spare capacity absorbs
//     its children's loads directly, least-utilized child first.
//  3. Best-fit broker replacement — each allocated broker is replaced by
//     the unallocated broker with the smallest sufficient capacity.
package overlaybuild

import (
	"fmt"
	"slices"
	"sort"

	"github.com/greenps/greenps/internal/allocation"
	"github.com/greenps/greenps/internal/bitvector"
)

// Tree is the constructed broker overlay.
type Tree struct {
	// Root is the broker all publishers initially connect to.
	Root string
	// Children maps a broker to its child brokers (sorted; absent key =
	// leaf).
	Children map[string][]string
	// Hosted maps a broker to the real subscription units it serves
	// directly.
	Hosted map[string][]*allocation.Unit
	// Specs indexes the specs of allocated brokers.
	Specs map[string]*allocation.BrokerSpec
}

// Brokers returns all allocated broker IDs, sorted.
func (t *Tree) Brokers() []string {
	out := make([]string, 0, len(t.Specs))
	for id := range t.Specs {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// NumBrokers returns the number of allocated brokers in the tree.
func (t *Tree) NumBrokers() int { return len(t.Specs) }

// SubscriberPlacement maps every real subscription ID to its broker.
func (t *Tree) SubscriberPlacement() map[string]string {
	out := make(map[string]string)
	for b, us := range t.Hosted {
		for _, u := range us {
			for _, m := range u.Members {
				if m.SubID != "" {
					out[m.SubID] = b
				}
			}
		}
	}
	return out
}

// Validate checks that Children is a tree over exactly the allocated
// brokers: every broker reached from the root is reached once and has a
// spec, and every spec is reached.
func (t *Tree) Validate() error {
	if t.Root == "" {
		return fmt.Errorf("overlaybuild: tree has no root")
	}
	if _, ok := t.Specs[t.Root]; !ok {
		return fmt.Errorf("overlaybuild: root %q has no spec", t.Root)
	}
	seen := map[string]bool{t.Root: true}
	queue := []string{t.Root}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, ch := range t.Children[cur] {
			if seen[ch] {
				return fmt.Errorf("overlaybuild: broker %q reached twice (cycle or DAG)", ch)
			}
			if _, ok := t.Specs[ch]; !ok {
				return fmt.Errorf("overlaybuild: child %q of %q has no spec", ch, cur)
			}
			seen[ch] = true
			queue = append(queue, ch)
		}
	}
	for _, id := range t.Brokers() {
		if !seen[id] {
			return fmt.Errorf("overlaybuild: broker %q is not reachable from root %q", id, t.Root)
		}
	}
	return nil
}

// Stats reports what the construction did, feeding the E10 ablation.
type Stats struct {
	// Layers is the number of allocation layers run (tree height above
	// the leaves).
	Layers int
	// ForwardersEliminated counts optimization-1 splices.
	ForwardersEliminated int
	// Takeovers counts optimization-2 absorptions.
	Takeovers int
	// BestFitSwaps counts optimization-3 replacements.
	BestFitSwaps int
}

// maxLayers bounds the recursion.
const maxLayers = 64

// Builder constructs trees. The zero value is not usable: Algorithm is
// required.
type Builder struct {
	// Algorithm is the Phase-2 allocator reused recursively. Using the
	// same algorithm for Phases 2 and 3 keeps the allocation scheme
	// consistent, exactly as the paper argues.
	Algorithm allocation.Algorithm
	// DisableEliminateForwarders turns off optimization 1.
	DisableEliminateForwarders bool
	// DisableTakeover turns off optimization 2.
	DisableTakeover bool
	// DisableBestFit turns off optimization 3.
	DisableBestFit bool

	stats Stats
}

// Stats returns the statistics of the last Build call.
func (b *Builder) Stats() Stats { return b.stats }

// node is a tree node under construction.
type node struct {
	id       string
	spec     *allocation.BrokerSpec
	hosted   []*allocation.Unit
	children []*node
	// profile is the OR of everything at or below this node.
	profile *bitvector.Profile
}

// pseudoUnit wraps a constructed subtree as an allocatable unit: its
// profile is the subtree's aggregate filter and its load is the traffic a
// parent must forward down to it (the subtree root's input load).
func pseudoUnit(n *node, pubs map[string]*bitvector.PublisherStats) *allocation.Unit {
	in := bitvector.EstimateLoad(n.profile, pubs)
	return &allocation.Unit{
		ID:      "ps-" + n.id,
		Members: []allocation.Member{{ChildBroker: n.id}},
		Profile: n.profile,
		Load:    in,
	}
}

// unitSet returns the units a broker hosts if it keeps its real units and
// forwards to the given children.
func unitSet(hosted []*allocation.Unit, children []*node, pubs map[string]*bitvector.PublisherStats) []*allocation.Unit {
	out := make([]*allocation.Unit, 0, len(hosted)+len(children))
	out = append(out, hosted...)
	for _, c := range children {
		out = append(out, pseudoUnit(c, pubs))
	}
	return out
}

// Build constructs the overlay tree for a Phase-2 assignment. The broker
// pool for upper layers is every broker in the assignment's specs that
// received no units.
func (b *Builder) Build(a *allocation.Assignment, pubs map[string]*bitvector.PublisherStats) (*Tree, error) {
	if b.Algorithm == nil {
		return nil, fmt.Errorf("overlaybuild: no allocation algorithm configured")
	}
	b.stats = Stats{}
	if a.NumAllocated() == 0 {
		return nil, fmt.Errorf("overlaybuild: assignment allocates no brokers")
	}

	// Leaves: the Phase-2 allocated brokers.
	var layer []*node
	used := make(map[string]bool)
	for _, id := range a.AllocatedBrokers() {
		// A broker's filter is the OR of what it hosts, in placement order.
		hosted := a.ByBroker[id]
		layer = append(layer, &node{id: id, spec: a.Specs[id], hosted: hosted, profile: allocation.MergeUnits(id, hosted...).Profile})
		used[id] = true
	}
	// Pool: everything else, most resourceful first.
	var pool []*allocation.BrokerSpec
	for id, spec := range a.Specs {
		if !used[id] {
			pool = append(pool, spec)
		}
	}
	slices.SortFunc(pool, allocation.CompareBrokers)

	for len(layer) > 1 {
		if b.stats.Layers >= maxLayers {
			return nil, fmt.Errorf("overlaybuild: exceeded %d layers without converging to a root", maxLayers)
		}
		b.stats.Layers++
		if len(pool) == 0 {
			return nil, fmt.Errorf("overlaybuild: broker pool exhausted with %d subtrees remaining", len(layer))
		}
		next, newPool, err := b.buildLayer(layer, pool, pubs)
		if err != nil {
			return nil, err
		}
		if len(next) >= len(layer) {
			return nil, fmt.Errorf("overlaybuild: layer failed to shrink (%d -> %d subtrees); broker capacities cannot aggregate this workload",
				len(layer), len(next))
		}
		layer, pool = next, newPool
	}

	return flatten(layer[0]), nil
}

// buildLayer allocates parents for the current layer and applies the three
// optimizations. It returns the next layer and the remaining pool.
func (b *Builder) buildLayer(layer []*node, pool []*allocation.BrokerSpec,
	pubs map[string]*bitvector.PublisherStats) ([]*node, []*allocation.BrokerSpec, error) {
	units := make([]*allocation.Unit, len(layer))
	byID := make(map[string]*node, len(layer))
	for i, n := range layer {
		units[i] = pseudoUnit(n, pubs)
		byID[n.id] = n
	}
	in := &allocation.Input{Units: units, Brokers: pool, Publishers: pubs}
	assign, err := b.Algorithm.Allocate(in)
	if err != nil {
		return nil, nil, fmt.Errorf("overlaybuild: layer allocation: %w", err)
	}

	poolLeft := make([]*allocation.BrokerSpec, 0, len(pool))
	allocated := make(map[string]bool)
	for _, id := range assign.AllocatedBrokers() {
		allocated[id] = true
	}
	for _, spec := range pool {
		if !allocated[spec.ID] {
			poolLeft = append(poolLeft, spec)
		}
	}

	var next []*node
	for _, pid := range assign.AllocatedBrokers() {
		parent := &node{id: pid, spec: assign.Specs[pid], profile: allocation.MergeUnits(pid, assign.ByBroker[pid]...).Profile}
		for _, u := range assign.ByBroker[pid] {
			for _, m := range u.Members {
				child, ok := byID[m.ChildBroker]
				if !ok {
					return nil, nil, fmt.Errorf("overlaybuild: allocation returned unknown child %q", m.ChildBroker)
				}
				parent.children = append(parent.children, child)
			}
		}
		sort.Slice(parent.children, func(i, j int) bool { return parent.children[i].id < parent.children[j].id })

		// Optimization 1: a parent with a single child and no local units
		// is a pure forwarder — deallocate it and promote the child.
		if !b.DisableEliminateForwarders && len(parent.children) == 1 && len(parent.hosted) == 0 {
			b.stats.ForwardersEliminated++
			poolLeft = insertSorted(poolLeft, parent.spec)
			next = append(next, parent.children[0])
			continue
		}

		// Optimization 2: absorb children the parent can serve directly,
		// least-utilized first.
		if !b.DisableTakeover {
			poolLeft = b.takeover(parent, poolLeft, pubs)
		}

		// Optimization 3: swap the parent for the smallest sufficient
		// pool broker.
		if !b.DisableBestFit {
			poolLeft = b.bestFit(parent, poolLeft, pubs)
		}

		next = append(next, parent)
	}
	sort.Slice(next, func(i, j int) bool { return next[i].id < next[j].id })
	return next, poolLeft, nil
}

// takeover implements optimization 2 on one parent: children are examined
// in ascending utilization order; a child whose entire contents (hosted
// units plus forwarding to grandchildren) fit into the parent alongside
// everything else the parent serves is absorbed and its broker freed.
func (b *Builder) takeover(parent *node, pool []*allocation.BrokerSpec,
	pubs map[string]*bitvector.PublisherStats) []*allocation.BrokerSpec {
	for {
		// Sort (remaining) children by utilization ascending.
		type cu struct {
			c    *node
			util float64
		}
		cus := make([]cu, 0, len(parent.children))
		for _, c := range parent.children {
			out := 0.0
			for _, u := range unitSet(c.hosted, c.children, pubs) {
				out += u.Load.Bandwidth
			}
			cus = append(cus, cu{c: c, util: out / c.spec.OutputBandwidth})
		}
		sort.Slice(cus, func(i, j int) bool {
			if cus[i].util != cus[j].util {
				return cus[i].util < cus[j].util
			}
			return cus[i].c.id < cus[j].c.id
		})
		absorbed := false
		for _, e := range cus {
			c := e.c
			// Hypothetical parent contents with c absorbed.
			rest := make([]*node, 0, len(parent.children)-1+len(c.children))
			for _, o := range parent.children {
				if o != c {
					rest = append(rest, o)
				}
			}
			rest = append(rest, c.children...)
			hosted := make([]*allocation.Unit, 0, len(parent.hosted)+len(c.hosted))
			hosted = append(hosted, parent.hosted...)
			hosted = append(hosted, c.hosted...)
			if !allocation.FitsBroker(parent.spec, unitSet(hosted, rest, pubs), pubs) {
				continue
			}
			parent.hosted = hosted
			parent.children = rest
			sort.Slice(parent.children, func(i, j int) bool { return parent.children[i].id < parent.children[j].id })
			pool = insertSorted(pool, c.spec)
			b.stats.Takeovers++
			absorbed = true
			break
		}
		if !absorbed {
			return pool
		}
	}
}

// bestFit implements optimization 3 on one parent: replace it with the
// least-capacity pool broker that can still carry its full unit set.
func (b *Builder) bestFit(parent *node, pool []*allocation.BrokerSpec,
	pubs map[string]*bitvector.PublisherStats) []*allocation.BrokerSpec {
	units := unitSet(parent.hosted, parent.children, pubs)
	bestIdx := -1
	for i, spec := range pool {
		if spec.OutputBandwidth >= parent.spec.OutputBandwidth {
			continue // not a downgrade
		}
		if !allocation.FitsBroker(spec, units, pubs) {
			continue
		}
		if bestIdx < 0 || spec.OutputBandwidth < pool[bestIdx].OutputBandwidth {
			bestIdx = i
		}
	}
	if bestIdx < 0 {
		return pool
	}
	old := parent.spec
	parent.spec = pool[bestIdx]
	parent.id = pool[bestIdx].ID
	pool = append(pool[:bestIdx], pool[bestIdx+1:]...)
	pool = insertSorted(pool, old)
	b.stats.BestFitSwaps++
	return pool
}

// insertSorted returns the pool with the spec inserted, keeping the
// most-resourceful-first order.
func insertSorted(pool []*allocation.BrokerSpec, spec *allocation.BrokerSpec) []*allocation.BrokerSpec {
	i, _ := slices.BinarySearchFunc(pool, spec, allocation.CompareBrokers)
	return slices.Insert(pool, i, spec)
}

// flatten converts the node tree into the exported Tree form.
func flatten(root *node) *Tree {
	t := &Tree{
		Root:     root.id,
		Children: make(map[string][]string),
		Hosted:   make(map[string][]*allocation.Unit),
		Specs:    make(map[string]*allocation.BrokerSpec),
	}
	var visit func(n *node)
	visit = func(n *node) {
		t.Specs[n.id] = n.spec
		if len(n.hosted) > 0 {
			t.Hosted[n.id] = n.hosted
		}
		for _, c := range n.children {
			t.Children[n.id] = append(t.Children[n.id], c.id)
			visit(c)
		}
		sort.Strings(t.Children[n.id])
	}
	visit(root)
	return t
}
