package poset

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/greenps/greenps/internal/bitvector"
)

// prof builds a profile over a single publisher with the given bit IDs set
// and a window of [0,63].
func prof(ids ...int) *bitvector.Profile {
	p := bitvector.NewProfile(64)
	for _, id := range ids {
		p.Record("P", id)
	}
	if v := p.Vector("P"); v != nil {
		v.Observe(63)
	}
	return p
}

// rangeProf sets bits lo..hi inclusive.
func rangeProf(lo, hi int) *bitvector.Profile {
	ids := make([]int, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		ids = append(ids, i)
	}
	return prof(ids...)
}

func mustInsert(t *testing.T, p *Poset, id string, pr *bitvector.Profile) *Node {
	t.Helper()
	n, err := p.Insert(id, pr, id)
	if err != nil {
		t.Fatalf("insert %s: %v", id, err)
	}
	return n
}

// TestFigure2Shape builds the poset of Figure 2: a STOCK node covering a
// YHOO node and a volume node, plus a disjoint SPORTS branch.
func TestFigure2Shape(t *testing.T) {
	p := New()
	stock := mustInsert(t, p, "stock", rangeProf(0, 31))
	yhoo := mustInsert(t, p, "stock-yhoo", rangeProf(0, 7))
	vol := mustInsert(t, p, "stock-volume", rangeProf(4, 15))
	sports := mustInsert(t, p, "sports", rangeProf(40, 49))
	racing := mustInsert(t, p, "sports-racing", rangeProf(40, 44))

	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	rootKids := p.root.Children()
	if len(rootKids) != 2 {
		t.Fatalf("root children = %d, want 2 (stock, sports)", len(rootKids))
	}
	if got := stock.Children(); len(got) != 2 {
		t.Fatalf("stock children = %v, want yhoo and volume", names(got))
	}
	if got := sports.Children(); len(got) != 1 || got[0] != racing {
		t.Fatalf("sports children = %v, want racing", names(got))
	}
	if len(yhoo.parents) != 1 || yhoo.parents[0] != stock {
		t.Fatal("yhoo parent should be stock")
	}
	_ = vol
}

func names(ns []*Node) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = n.ID
	}
	return out
}

func TestInsertOrderIndependence(t *testing.T) {
	// Inserting parent-first and child-first must both produce the
	// superset ordering.
	build := func(order []string) *Poset {
		profiles := map[string]*bitvector.Profile{
			"big":   rangeProf(0, 31),
			"mid":   rangeProf(0, 15),
			"small": rangeProf(0, 7),
		}
		p := New()
		for _, id := range order {
			if _, err := p.Insert(id, profiles[id], nil); err != nil {
				t.Fatalf("insert %s: %v", id, err)
			}
		}
		return p
	}
	for _, order := range [][]string{
		{"big", "mid", "small"},
		{"small", "mid", "big"},
		{"mid", "big", "small"},
		{"small", "big", "mid"},
	} {
		p := build(order)
		if err := p.CheckInvariants(); err != nil {
			t.Fatalf("order %v: %v", order, err)
		}
		big := p.nodes["big"]
		if len(p.root.Children()) != 1 || p.root.Children()[0] != big {
			t.Fatalf("order %v: root child should be big, got %v", order, names(p.root.Children()))
		}
		if kids := big.Children(); len(kids) != 1 || kids[0].ID != "mid" {
			t.Fatalf("order %v: big children = %v, want [mid]", order, names(kids))
		}
		mid := p.nodes["mid"]
		if kids := mid.Children(); len(kids) != 1 || kids[0].ID != "small" {
			t.Fatalf("order %v: mid children = %v, want [small]", order, names(kids))
		}
	}
}

func TestInsertRewiresTransitiveEdge(t *testing.T) {
	p := New()
	mustInsert(t, p, "big", rangeProf(0, 31))
	mustInsert(t, p, "small", rangeProf(0, 3))
	// big -> small edge exists; inserting mid must sit between them.
	mid := mustInsert(t, p, "mid", rangeProf(0, 15))
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	big, small := p.nodes["big"], p.nodes["small"]
	if kids := big.Children(); len(kids) != 1 || kids[0] != mid {
		t.Fatalf("big children = %v, want [mid]", names(kids))
	}
	if pars := small.parents; len(pars) != 1 || pars[0] != mid {
		t.Fatalf("small parents = %v, want [mid]", names(pars))
	}
}

func TestInsertRejectsDuplicatesAndEmpties(t *testing.T) {
	p := New()
	mustInsert(t, p, "a", rangeProf(0, 7))
	if _, err := p.Insert("a", rangeProf(8, 15), nil); err == nil {
		t.Error("duplicate ID accepted")
	}
	if _, err := p.Insert("b", rangeProf(0, 7), nil); err == nil {
		t.Error("equal profile accepted; GIF grouping should have caught it")
	}
	if _, err := p.Insert("c", bitvector.NewProfile(64), nil); err == nil {
		t.Error("empty profile accepted")
	}
	if _, err := p.Insert("d", nil, nil); err == nil {
		t.Error("nil profile accepted")
	}
}

func TestRemoveReconnects(t *testing.T) {
	p := New()
	mustInsert(t, p, "big", rangeProf(0, 31))
	mustInsert(t, p, "mid", rangeProf(0, 15))
	mustInsert(t, p, "small", rangeProf(0, 7))
	if err := p.Remove("mid"); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	big, small := p.nodes["big"], p.nodes["small"]
	if kids := big.Children(); len(kids) != 1 || kids[0] != small {
		t.Fatalf("big children after removal = %v, want [small]", names(kids))
	}
	if len(p.nodes) != 2 {
		t.Fatalf("len = %d, want 2", len(p.nodes))
	}
	if err := p.Remove("mid"); err == nil {
		t.Error("removing absent node must fail")
	}
}

func TestRemoveRootChildReattaches(t *testing.T) {
	p := New()
	mustInsert(t, p, "big", rangeProf(0, 31))
	mustInsert(t, p, "small", rangeProf(0, 7))
	if err := p.Remove("big"); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if kids := p.root.Children(); len(kids) != 1 || kids[0].ID != "small" {
		t.Fatalf("root children = %v, want [small]", names(kids))
	}
}

func TestCoveredBy(t *testing.T) {
	p := New()
	big := mustInsert(t, p, "big", rangeProf(0, 31))
	mustInsert(t, p, "mid", rangeProf(0, 15))
	mustInsert(t, p, "small", rangeProf(0, 7))
	mustInsert(t, p, "other", rangeProf(16, 23))
	got := names(p.CoveredBy(big))
	if fmt.Sprint(got) != "[mid other small]" {
		t.Fatalf("CoveredBy(big) = %v", got)
	}
}

func TestSearchClosestFindsBestAndPrunes(t *testing.T) {
	p := New()
	// Two symbol families; query overlaps the first only.
	mustInsert(t, p, "sym1-all", rangeProf(0, 15))
	mustInsert(t, p, "sym1-lo", rangeProf(0, 7))
	mustInsert(t, p, "sym1-hi", rangeProf(8, 15))
	mustInsert(t, p, "sym2-all", rangeProf(32, 47))
	mustInsert(t, p, "sym2-lo", rangeProf(32, 39))

	query := rangeProf(0, 9)
	res := p.SearchClosest(query, bitvector.MetricIntersect, func(*Node) bool { return false })
	if res.Best == nil || res.Best.ID != "sym1-all" {
		t.Fatalf("best = %+v, want sym1-all", res.Best)
	}
	if res.Closeness != 10 {
		t.Fatalf("closeness = %v, want 10", res.Closeness)
	}
	// Pruning: the sym2 subtree is cut at sym2-all (zero closeness), so at
	// most 4 computations (sym1-all, sym2-all, sym1-lo, sym1-hi).
	if res.Computations > 4 {
		t.Fatalf("computations = %d, want <= 4 (sym2-lo must be pruned)", res.Computations)
	}
}

func TestSearchClosestSkip(t *testing.T) {
	p := New()
	mustInsert(t, p, "a", rangeProf(0, 15))
	mustInsert(t, p, "b", rangeProf(0, 7))
	query := rangeProf(0, 15)
	res := p.SearchClosest(query, bitvector.MetricIntersect, func(n *Node) bool { return n.ID == "a" })
	if res.Best == nil || res.Best.ID != "b" {
		t.Fatalf("best = %v, want b (a skipped)", res.Best)
	}
}

func TestSearchClosestXorVisitsEverything(t *testing.T) {
	p := New()
	mustInsert(t, p, "a", rangeProf(0, 15))
	mustInsert(t, p, "b", rangeProf(0, 7))
	mustInsert(t, p, "c", rangeProf(32, 47))
	mustInsert(t, p, "d", rangeProf(32, 39))
	query := rangeProf(0, 9)
	intersectRes := p.SearchClosest(query, bitvector.MetricIntersect, func(*Node) bool { return false })
	xorRes := p.SearchClosest(query, bitvector.MetricXor, func(*Node) bool { return false })
	if xorRes.Computations <= intersectRes.Computations {
		t.Fatalf("XOR computations (%d) must exceed pruned INTERSECT (%d)",
			xorRes.Computations, intersectRes.Computations)
	}
	if xorRes.Computations != 4 {
		t.Fatalf("XOR must visit all 4 nodes, visited %d", xorRes.Computations)
	}
}

func TestSearchClosestEmptyPoset(t *testing.T) {
	p := New()
	res := p.SearchClosest(rangeProf(0, 3), bitvector.MetricIOS, func(*Node) bool { return false })
	if res.Best != nil || res.Closeness != 0 || res.Computations != 0 {
		t.Fatalf("empty poset search = %+v", res)
	}
}

// TestQuickPosetInvariants inserts and removes random interval profiles and
// verifies the structural invariants at every step.
func TestQuickPosetInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := New()
		type rec struct {
			id string
			pr *bitvector.Profile
		}
		var live []rec
		seenKey := make(map[string]bool)
		for i := 0; i < 40; i++ {
			if len(live) > 0 && rng.Intn(4) == 0 {
				k := rng.Intn(len(live))
				if err := p.Remove(live[k].id); err != nil {
					t.Logf("remove: %v", err)
					return false
				}
				delete(seenKey, live[k].pr.FingerprintKey())
				live = append(live[:k], live[k+1:]...)
			} else {
				lo := rng.Intn(48)
				hi := lo + rng.Intn(63-lo)
				pr := rangeProf(lo, hi)
				key := pr.FingerprintKey()
				if seenKey[key] {
					continue // equal profiles are rejected by design
				}
				id := fmt.Sprintf("n%d", i)
				if _, err := p.Insert(id, pr, nil); err != nil {
					t.Logf("insert: %v", err)
					return false
				}
				seenKey[key] = true
				live = append(live, rec{id: id, pr: pr})
			}
			if err := p.CheckInvariants(); err != nil {
				t.Logf("invariants after step %d: %v", i, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// searchUnpruned is SearchClosest's walk with zero pruning only, the
// reference decrease pruning is held to: every node is skipped or reached
// in the same level order, and none is passed over for its closeness
// falling below its parent's.
func searchUnpruned(p *Poset, query *bitvector.Profile, metric bitvector.Metric) SearchResult {
	var res SearchResult
	seen := make(visited, (p.slots+63)/64)
	for level := []*Node{p.root}; len(level) > 0; {
		var next []*Node
		for _, n := range level {
			for _, ch := range n.Children() {
				if !seen.mark(ch.slot) {
					continue
				}
				res.Computations++
				c := bitvector.Closeness(metric, query, ch.Profile)
				if c == 0 {
					continue
				}
				if res.Best == nil || c > res.Closeness || (c == res.Closeness && ch.ID < res.Best.ID) {
					res.Best, res.Closeness = ch, c
				}
				next = append(next, ch)
			}
		}
		level = next
	}
	return res
}

// TestQuickSearchClosestMatchesExhaustive compares the pruned search with a
// brute-force scan over all nodes for the prunable metrics.
func TestQuickSearchClosestMatchesExhaustive(t *testing.T) {
	metrics := []bitvector.Metric{bitvector.MetricIntersect, bitvector.MetricIOS, bitvector.MetricIOU}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := New()
		// Inserts interleaved with removes, so the searches below walk nodes
		// holding recycled slots: the slots handed out never exceed the peak
		// number of live nodes (plus the root's).
		seenKey := make(map[string]string) // fingerprint -> live node ID
		var live []string
		peak := 0
		for i := 0; i < 45; i++ {
			if len(live) > 0 && rng.Intn(4) == 0 {
				k := rng.Intn(len(live))
				if err := p.Remove(live[k]); err != nil {
					t.Logf("remove: %v", err)
					return false
				}
				for key, id := range seenKey {
					if id == live[k] {
						delete(seenKey, key)
					}
				}
				live = append(live[:k], live[k+1:]...)
				continue
			}
			lo := rng.Intn(48)
			hi := lo + rng.Intn(63-lo)
			pr := rangeProf(lo, hi)
			if _, ok := seenKey[pr.FingerprintKey()]; ok {
				continue
			}
			id := fmt.Sprintf("n%d", i)
			if _, err := p.Insert(id, pr, nil); err != nil {
				t.Logf("insert: %v", err)
				return false
			}
			seenKey[pr.FingerprintKey()] = id
			live = append(live, id)
			peak = max(peak, len(live))
		}
		if err := p.CheckInvariants(); err != nil {
			t.Logf("invariants: %v", err)
			return false
		}
		if p.slots != 1+peak {
			t.Logf("%d slots handed out for a peak of %d live nodes: removed slots are not reused", p.slots, peak)
			return false
		}
		qlo := rng.Intn(48)
		query := rangeProf(qlo, qlo+rng.Intn(63-qlo))
		for _, m := range metrics {
			// Exhaustive best.
			var bestVal float64
			p.Walk(func(n *Node) {
				if c := bitvector.Closeness(m, query, n.Profile); c > bestVal {
					bestVal = c
				}
			})
			// With only the exact zero-pruning, the search must find the
			// true maximum.
			exact := searchUnpruned(p, query, m)
			if bestVal == 0 {
				if exact.Best != nil {
					t.Logf("%v: exact search found %s where exhaustive found nothing", m, exact.Best.ID)
					return false
				}
			} else if exact.Best == nil || exact.Closeness != bestVal {
				t.Logf("%v: exact search best %v, exhaustive best %v", m, exact.Closeness, bestVal)
				return false
			}
			// With the paper's decrease-pruning heuristic, the search may
			// miss the max but must (a) never exceed it, (b) still find a
			// positive pair whenever one exists, and (c) do no more work
			// than the exact search.
			pruned := p.SearchClosest(query, m, func(*Node) bool { return false })
			if pruned.Closeness > bestVal {
				t.Logf("%v: pruned search %v exceeds exhaustive best %v", m, pruned.Closeness, bestVal)
				return false
			}
			if bestVal > 0 && (pruned.Best == nil || pruned.Closeness <= 0) {
				t.Logf("%v: pruned search found nothing but best is %v", m, bestVal)
				return false
			}
			if pruned.Computations > exact.Computations {
				t.Logf("%v: pruned search did more work (%d) than exact (%d)",
					m, pruned.Computations, exact.Computations)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkInsertGIFs measures poset insertion scalability (experiment E12;
// the paper reports 3,200 GIF insertions in ~2 s on 2011 hardware).
func BenchmarkInsertGIFs(b *testing.B) {
	for _, n := range []int{100, 400, 1600, 3200} {
		b.Run(fmt.Sprintf("gifs=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			type item struct {
				id string
				pr *bitvector.Profile
			}
			items := make([]item, 0, n)
			seen := make(map[string]bool)
			for len(items) < n {
				pub := fmt.Sprintf("P%d", rng.Intn(40))
				pr := bitvector.NewProfile(bitvector.DefaultCapacity)
				lo := rng.Intn(1000)
				for i := lo; i < lo+50+rng.Intn(200); i++ {
					pr.Record(pub, i)
				}
				pr.Vector(pub).Observe(1279)
				if seen[pr.FingerprintKey()] {
					continue
				}
				seen[pr.FingerprintKey()] = true
				items = append(items, item{fmt.Sprintf("g%d", len(items)), pr})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := New()
				for _, it := range items {
					if _, err := p.Insert(it.id, it.pr, nil); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// TestCheckInvariantsDeterministicWitness corrupts two edges of one node
// and demands the same witness on every run. Before CheckInvariants
// switched to ID-ordered iteration it ranged over the children map, so
// which of the two broken edges it reported depended on map iteration
// order and flipped between runs.
func TestCheckInvariantsDeterministicWitness(t *testing.T) {
	p := New()
	a := mustInsert(t, p, "A", rangeProf(0, 3))
	b := mustInsert(t, p, "B", prof(0))
	c := mustInsert(t, p, "C", prof(1))
	b.parents = without(b.parents, a)
	c.parents = without(c.parents, a)
	const want = "poset: edge A -> B missing back-link"
	for i := 0; i < 50; i++ {
		err := p.CheckInvariants()
		if err == nil {
			t.Fatal("corrupted poset passed CheckInvariants")
		}
		if err.Error() != want {
			t.Fatalf("iteration %d: witness %q, want %q", i, err, want)
		}
	}
}

// TestCheckInvariantsSlots corrupts the slot bookkeeping the visited bitmaps
// rest on — two live nodes on one slot, a live node's slot on the free list,
// a slot that leaked — and demands each is reported.
func TestCheckInvariantsSlots(t *testing.T) {
	build := func() (*Poset, *Node, *Node) {
		p := New()
		a := mustInsert(t, p, "A", rangeProf(0, 3))
		b := mustInsert(t, p, "B", prof(0))
		mustInsert(t, p, "C", prof(1))
		if err := p.Remove("C"); err != nil {
			t.Fatal(err)
		}
		if err := p.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return p, a, b
	}
	p, a, b := build()
	b.slot = a.slot
	if err := p.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "node B holds slot") {
		t.Errorf("two nodes on one slot: %v", err)
	}
	p, a, _ = build()
	p.free[0] = a.slot
	if err := p.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "free slot") {
		t.Errorf("a live node's slot on the free list: %v", err)
	}
	p, _, _ = build()
	p.free = nil
	if err := p.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "slots handed out") {
		t.Errorf("a leaked slot: %v", err)
	}
}
