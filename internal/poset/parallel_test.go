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

// TestSearchClosestAllocationFree pins a steady-state SearchClosest at zero
// allocations: the walk's visited set and level queues come from the pool
// and go back to it.
func TestSearchClosestAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop pooled scratch at random")
	}
	p, profiles := randomPoset(t, 23, 40)
	for _, m := range []bitvector.Metric{bitvector.MetricIOS, bitvector.MetricXor} {
		if n := testing.AllocsPerRun(100, func() {
			for _, q := range profiles {
				p.SearchClosest(q, m, func(*Node) bool { return false })
			}
		}); n != 0 {
			t.Errorf("%v: %d searches allocate %v times, want 0", m, len(profiles), n)
		}
	}
}
