package bitvector

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomProfile builds a profile over a random subset of the given
// publishers with random windows and densities.
func randomProfile(rng *rand.Rand, capacity int, pubs []string) *Profile {
	p := NewProfile(capacity)
	for _, adv := range pubs {
		if rng.Intn(3) == 0 {
			continue // publisher absent from this profile
		}
		start := rng.Intn(2 * capacity)
		width := 1 + rng.Intn(capacity)
		for i := 0; i < width; i++ {
			if rng.Intn(4) == 0 {
				p.Record(adv, start+i)
			}
		}
		if v := p.Vector(adv); v != nil {
			v.Observe(start + width - 1)
		}
	}
	return p
}

// TestQuickUpperBoundAdmissible is the property behind the search pruning:
// for every metric and random profile pair, ClosenessUpperBound of the
// summaries is never below the exact Closeness.
func TestQuickUpperBoundAdmissible(t *testing.T) {
	metrics := []Metric{MetricIntersect, MetricXor, MetricIOS, MetricIOU}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capacity := 16 + rng.Intn(300)
		pubs := []string{"adv1", "adv2", "adv3", "adv4"}
		a := randomProfile(rng, capacity, pubs)
		b := randomProfile(rng, capacity, pubs)
		sa, sb := Summarize(a), Summarize(b)
		if iUB := intersectUpperBound(sa, sb); iUB < IntersectCount(a, b) {
			t.Logf("intersect bound %d < exact %d", iUB, IntersectCount(a, b))
			return false
		}
		ok := true
		for _, m := range metrics {
			ub := ClosenessUpperBound(m, sa, sb)
			exact := Closeness(m, a, b)
			if ub < exact {
				t.Logf("%v: bound %v < exact %v", m, ub, exact)
				ok = false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestSummaryTotals checks the summary mirrors the profile's cached counts
// and skips zero-count publishers.
func TestSummaryTotals(t *testing.T) {
	p := NewProfile(64)
	p.Record("a", 10)
	p.Record("a", 11)
	p.Record("b", 5)
	// Publisher with an observed window but no set bits: must be omitted.
	p.Record("c", 1)
	p.Vector("c").Observe(65) // slides the lone bit out of the 64-bit window
	if got := p.Vector("c").Count(); got != 0 {
		t.Fatalf("vector c count = %d, want 0 after slide", got)
	}
	s := Summarize(p)
	if s.total != p.Count() {
		t.Fatalf("summary total = %d, profile count = %d", s.total, p.Count())
	}
	for _, ps := range s.pubs {
		if ps.count == 0 {
			t.Fatalf("summary retains zero-count publisher %q", ps.advID)
		}
	}
}

// TestUpperBoundSelfPair checks the bound is exact for identical profiles
// under every metric — the case the exhaustive scan's t0 threshold prunes
// against most often.
func TestUpperBoundSelfPair(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p := randomProfile(rng, 128, []string{"x", "y", "z"})
	if p.Empty() {
		t.Skip("random profile came up empty")
	}
	s := Summarize(p)
	for _, m := range []Metric{MetricIntersect, MetricXor, MetricIOS, MetricIOU} {
		ub := ClosenessUpperBound(m, s, s)
		exact := Closeness(m, p, p)
		if ub < exact {
			t.Errorf("%v self-pair: bound %v < exact %v", m, ub, exact)
		}
	}
}

// TestUpperBoundDisjoint checks bounds hit exact zero for profiles with no
// common publishers (INTERSECT/IOS/IOU), which powers the zero-pruning
// path without any exact evaluation.
func TestUpperBoundDisjoint(t *testing.T) {
	a := NewProfile(64)
	a.Record("p1", 3)
	b := NewProfile(64)
	b.Record("p2", 3)
	sa, sb := Summarize(a), Summarize(b)
	for _, m := range []Metric{MetricIntersect, MetricIOS, MetricIOU} {
		if ub := ClosenessUpperBound(m, sa, sb); ub != 0 {
			t.Errorf("%v disjoint: bound = %v, want 0", m, ub)
		}
	}
	// XOR stays positive on disjoint profiles — its closeness is too.
	if ub := ClosenessUpperBound(MetricXor, sa, sb); ub <= 0 {
		t.Errorf("XOR disjoint: bound = %v, want > 0", ub)
	}
}

// TestProfileEmptyEarlyExit pins the satellite fix: Empty must answer
// without touching every publisher once a non-zero vector is found; here
// we just assert correctness over a profile mixing zero and non-zero
// vectors in both orders.
func TestProfileEmptyEarlyExit(t *testing.T) {
	p := NewProfile(64)
	for i := 0; i < 10; i++ {
		adv := fmt.Sprintf("adv%02d", i)
		p.Record(adv, 5)
		if i != 0 {
			// All but adv00 end up with observed-but-unset windows.
			v := p.Vector(adv)
			*v = *New(64)
			v.Observe(9)
		}
	}
	if p.Empty() {
		t.Fatal("profile with a set bit reports Empty")
	}
	q := NewProfile(64)
	if !q.Empty() {
		t.Fatal("fresh profile not Empty")
	}
	q.Record("a", 1)
	if q.Empty() {
		t.Fatal("recorded profile reports Empty")
	}
}
