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

// TestSearchClosestParallelMatchesSerial: for every metric, every query, and
// workers in {1, 2, 8}, the parallel search must return the same best node,
// the same closeness, and the exact same computation count as the serial
// search.
func TestSearchClosestParallelMatchesSerial(t *testing.T) {
	p, profiles := randomPoset(t, 11, 60)
	metrics := []bitvector.Metric{
		bitvector.MetricIntersect, bitvector.MetricXor,
		bitvector.MetricIOS, bitvector.MetricIOU,
	}
	for _, m := range metrics {
		for qi, q := range profiles {
			skip := func(n *Node) bool { return n.ID == fmt.Sprintf("n%03d", qi) }
			want := p.SearchClosest(q, m, skip)
			for _, w := range []int{1, 2, 8} {
				got := p.SearchClosestOpts(q, m, skip, true, w, true)
				if got.Best != want.Best || got.Closeness != want.Closeness ||
					got.Computations != want.Computations {
					wantID, gotID := "<nil>", "<nil>"
					if want.Best != nil {
						wantID = want.Best.ID
					}
					if got.Best != nil {
						gotID = got.Best.ID
					}
					t.Fatalf("metric=%v query=%d workers=%d: got (%s, %v, %d), serial (%s, %v, %d)",
						m, qi, w, gotID, got.Closeness, got.Computations,
						wantID, want.Closeness, want.Computations)
				}
			}
		}
	}
}

// TestSearchClosestBoundedMatchesUnbounded: with bound pruning on, the
// search must return the same best node, closeness, and computation count
// as with every evaluation exact — for every metric, query, and worker
// count — and BoundPruned itself must be identical at every worker count.
func TestSearchClosestBoundedMatchesUnbounded(t *testing.T) {
	p, profiles := randomPoset(t, 17, 60)
	metrics := []bitvector.Metric{
		bitvector.MetricIntersect, bitvector.MetricXor,
		bitvector.MetricIOS, bitvector.MetricIOU,
	}
	for _, m := range metrics {
		for qi, q := range profiles {
			skip := func(n *Node) bool { return n.ID == fmt.Sprintf("n%03d", qi) }
			exact := p.SearchClosestOpts(q, m, skip, true, 1, false)
			if exact.BoundPruned != 0 {
				t.Fatalf("metric=%v query=%d: BoundPruned=%d with bounds disabled", m, qi, exact.BoundPruned)
			}
			var prunedAtOne int
			for _, w := range []int{1, 2, 8} {
				got := p.SearchClosestOpts(q, m, skip, true, w, true)
				if got.Best != exact.Best || got.Closeness != exact.Closeness ||
					got.Computations != exact.Computations {
					t.Fatalf("metric=%v query=%d workers=%d: bounded (%v, %v, %d) != exact (%v, %v, %d)",
						m, qi, w, got.Best, got.Closeness, got.Computations,
						exact.Best, exact.Closeness, exact.Computations)
				}
				if w == 1 {
					prunedAtOne = got.BoundPruned
				} else if got.BoundPruned != prunedAtOne {
					t.Fatalf("metric=%v query=%d workers=%d: BoundPruned=%d, want %d (workers=1)",
						m, qi, w, got.BoundPruned, prunedAtOne)
				}
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
	got := p.SearchClosestOpts(q, bitvector.MetricIntersect, skip, true, 1, true)
	want := p.SearchClosestOpts(q, bitvector.MetricIntersect, skip, true, 1, false)
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
// frozen poset at once (the CRAM seed phase does exactly this). Run with
// -race to validate.
func TestSearchClosestParallelConcurrentQueries(t *testing.T) {
	p, profiles := randomPoset(t, 23, 40)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, q := range profiles {
				_ = p.SearchClosestOpts(q, bitvector.MetricIOS, func(n *Node) bool {
					return n.ID == fmt.Sprintf("n%03d", i)
				}, true, 1+w%4, true)
			}
		}(w)
	}
	wg.Wait()
}
