package poset

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/greenps/greenps/internal/bitvector"
)

// randomPoset inserts n random interval profiles (plus a handful of nested
// ones, so superset chains exist and both prunings engage).
func randomPoset(t *testing.T, seed int64, n int) (*Poset, []*bitvector.Profile) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p := New()
	var profiles []*bitvector.Profile
	for i := 0; i < n; i++ {
		lo := rng.Intn(48)
		hi := lo + 1 + rng.Intn(63-lo)
		pr := rangeProf(lo, hi)
		if err := p.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Insert(fmt.Sprintf("n%03d", i), pr, nil); err != nil {
			// Random intervals collide; equal profiles are rejected by
			// design. Skip duplicates.
			continue
		}
		profiles = append(profiles, pr)
	}
	return p, profiles
}

// TestSearchClosestBoundedMatchesUnbounded: with bound pruning on, the
// search must return the same best node, closeness, and computation count
// as with every evaluation exact, for every metric and query.
func TestSearchClosestBoundedMatchesUnbounded(t *testing.T) {
	p, profiles := randomPoset(t, 17, 60)
	metrics := []bitvector.Metric{
		bitvector.MetricIntersect, bitvector.MetricXor,
		bitvector.MetricIOS, bitvector.MetricIOU,
	}
	for _, m := range metrics {
		for qi, q := range profiles {
			skip := func(n *Node) bool { return n.ID == fmt.Sprintf("n%03d", qi) }
			exact := p.SearchClosestOpts(q, m, skip, true, false)
			if exact.BoundPruned != 0 {
				t.Fatalf("metric=%v query=%d: BoundPruned=%d with bounds disabled", m, qi, exact.BoundPruned)
			}
			got := p.SearchClosestOpts(q, m, skip, true, true)
			if got.Best != exact.Best || got.Closeness != exact.Closeness ||
				got.Computations != exact.Computations {
				t.Fatalf("metric=%v query=%d: bounded (%v, %v, %d) != exact (%v, %v, %d)",
					m, qi, got.Best, got.Closeness, got.Computations,
					exact.Best, exact.Closeness, exact.Computations)
			}
		}
	}
}

// TestSearchClosestBoundPrunesDisjoint pins the ub==0 skip: a node sharing
// no publisher with the query is answered by its summary bound, never an
// exact closeness call, and the result is unchanged.
func TestSearchClosestBoundPrunesDisjoint(t *testing.T) {
	p := New()
	mustInsert(t, p, "near", rangeProf(0, 10))
	far := bitvector.NewProfile(64)
	far.Record("Q", 5) // publisher Q: absent from the query's profile
	mustInsert(t, p, "far", far)
	q := rangeProf(0, 10)
	skip := func(*Node) bool { return false }
	got := p.SearchClosestOpts(q, bitvector.MetricIntersect, skip, true, true)
	want := p.SearchClosestOpts(q, bitvector.MetricIntersect, skip, true, false)
	if got.Best != want.Best || got.Closeness != want.Closeness || got.Computations != want.Computations {
		t.Fatalf("bounded result diverged: got (%v,%v,%d) want (%v,%v,%d)",
			got.Best, got.Closeness, got.Computations, want.Best, want.Closeness, want.Computations)
	}
	if got.Best == nil || got.Best.ID != "near" {
		t.Fatalf("Best = %v, want near", got.Best)
	}
	if got.BoundPruned != 1 {
		t.Fatalf("BoundPruned = %d, want 1 (the disjoint node)", got.BoundPruned)
	}
}

// TestSearchClosestParallelConcurrentQueries: many goroutines may search a
// frozen poset at once (the CRAM seed phase does exactly this), and each gets
// what a lone search returns. Run with -race to validate.
func TestSearchClosestParallelConcurrentQueries(t *testing.T) {
	p, profiles := randomPoset(t, 23, 40)
	search := func(i int) SearchResult {
		return p.SearchClosest(profiles[i], bitvector.MetricIOS, func(n *Node) bool {
			return n.ID == fmt.Sprintf("n%03d", i)
		})
	}
	want := make([]SearchResult, len(profiles))
	for i := range profiles {
		want[i] = search(i)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range profiles {
				if got := search(i); got != want[i] {
					t.Errorf("query %d: concurrent search %+v, lone search %+v", i, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}
