package bitvector

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestQuickEnvelopeBoundAdmissible is the property the shard pruning rests
// on: for every metric, probe profile g, and shard of member profiles, the
// bound against the shard envelope is never below the bound against any
// member — and hence (by the per-pair property) never below any exact
// member closeness.
func TestQuickEnvelopeBoundAdmissible(t *testing.T) {
	metrics := []Metric{MetricIntersect, MetricXor, MetricIOS, MetricIOU}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capacity := 16 + rng.Intn(200)
		pubs := []string{"adv1", "adv2", "adv3", "adv4", "adv5"}
		g := randomProfile(rng, capacity, pubs)
		sg := Summarize(g)

		var env Envelope
		env.Reset()
		members := make([]*Profile, 1+rng.Intn(8))
		sums := make([]*Summary, len(members))
		for i := range members {
			members[i] = randomProfile(rng, capacity, pubs)
			sums[i] = Summarize(members[i])
			env.Absorb(sums[i])
		}
		if env.n != len(members) {
			t.Logf("n = %d, want %d", env.n, len(members))
			return false
		}
		bound := env.Bound()
		ok := true
		for _, m := range metrics {
			envUB := ClosenessUpperBound(m, sg, bound)
			for i, sm := range sums {
				if pairUB := ClosenessUpperBound(m, sg, sm); envUB < pairUB {
					t.Logf("%v member %d: envelope bound %v < pair bound %v", m, i, envUB, pairUB)
					ok = false
				}
				if exact := Closeness(m, g, members[i]); envUB < exact {
					t.Logf("%v member %d: envelope bound %v < exact %v", m, i, envUB, exact)
					ok = false
				}
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestEnvelopeStaleAfterRemoval pins the one-sided staleness rule: an
// envelope built over a superset of the live members stays admissible for
// the members that remain.
func TestEnvelopeStaleAfterRemoval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pubs := []string{"a", "b", "c"}
	g := randomProfile(rng, 128, pubs)
	sg := Summarize(g)

	members := make([]*Profile, 6)
	var env Envelope
	for i := range members {
		members[i] = randomProfile(rng, 128, pubs)
		env.Absorb(Summarize(members[i]))
	}
	// "Remove" half the members without rebuilding; the envelope still
	// bounds the survivors.
	survivors := members[:3]
	bound := env.Bound()
	for _, m := range []Metric{MetricIntersect, MetricXor, MetricIOS, MetricIOU} {
		envUB := ClosenessUpperBound(m, sg, bound)
		for i, h := range survivors {
			if exact := Closeness(m, g, h); envUB < exact {
				t.Errorf("%v survivor %d: stale envelope bound %v < exact %v", m, i, envUB, exact)
			}
		}
	}
}

// TestEnvelopeResetReuse checks Reset recycles the buffers and a rebuilt
// envelope matches one built fresh.
func TestEnvelopeResetReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pubs := []string{"a", "b", "c", "d"}
	var reused Envelope
	for round := 0; round < 3; round++ {
		reused.Reset()
		var fresh Envelope
		sums := make([]*Summary, 4)
		for i := range sums {
			sums[i] = Summarize(randomProfile(rng, 96, pubs))
			reused.Absorb(sums[i])
			fresh.Absorb(sums[i])
		}
		rb, fb := reused.Bound(), fresh.Bound()
		if rb.total != fb.total || len(rb.pubs) != len(fb.pubs) {
			t.Fatalf("round %d: reused (total %d, %d pubs) != fresh (total %d, %d pubs)",
				round, rb.total, len(rb.pubs), fb.total, len(fb.pubs))
		}
		for i := range rb.pubs {
			if rb.pubs[i] != fb.pubs[i] {
				t.Fatalf("round %d pub %d: %+v != %+v", round, i, rb.pubs[i], fb.pubs[i])
			}
		}
	}
}

// TestEnvelopeTotalsAndWindows checks the envelope's aggregate rules
// directly on a hand-built example.
func TestEnvelopeTotalsAndWindows(t *testing.T) {
	a := NewProfile(64)
	a.Record("p", 10)
	a.Record("p", 11)
	a.Record("q", 3)
	b := NewProfile(64)
	b.Record("p", 40)
	b.Record("r", 8)
	b.Record("r", 9)
	b.Record("r", 10)

	var env Envelope
	env.Absorb(Summarize(a)) // total 3
	env.Absorb(Summarize(b)) // total 4
	s := env.Bound()
	if s.total != 3 {
		t.Errorf("envelope total = %d, want min member total 3", s.total)
	}
	byID := map[string]pubSummary{}
	for _, ps := range s.pubs {
		byID[ps.advID] = ps
	}
	p := byID["p"]
	if p.count != 2 || p.first != 10 || p.last != 40 {
		t.Errorf("p aggregate = %+v, want count 2 window [10,40]", p)
	}
	if _, ok := byID["q"]; !ok {
		t.Error("q missing from envelope")
	}
	if r := byID["r"]; r.count != 3 {
		t.Errorf("r count = %d, want 3", r.count)
	}
}

// TestDominant pins the shard routing key accessor: largest count wins,
// ties to the smallest advertisement ID, empty summaries report !ok.
func TestDominant(t *testing.T) {
	p := NewProfile(64)
	p.Record("b", 1)
	p.Record("b", 2)
	p.Record("a", 5)
	p.Record("a", 6)
	p.Record("c", 9)
	adv, first, ok := Summarize(p).Dominant()
	if !ok || adv != "a" || first != 5 {
		t.Errorf("Dominant = (%q, %d, %v), want (a, 5, true) on tie", adv, first, ok)
	}
	if _, _, ok := Summarize(NewProfile(64)).Dominant(); ok {
		t.Error("empty summary reported a dominant publisher")
	}
}

// FuzzEnvelopeBoundAdmissibility drives the admissibility property from
// fuzzed member layouts: the envelope bound must dominate every member
// pair bound and every exact closeness for all four metrics.
func FuzzEnvelopeBoundAdmissibility(f *testing.F) {
	f.Add(int64(1), uint8(3))
	f.Add(int64(42), uint8(1))
	f.Add(int64(-77), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, nMembers uint8) {
		rng := rand.New(rand.NewSource(seed))
		capacity := 16 + rng.Intn(150)
		pubs := []string{"a1", "a2", "a3"}
		g := randomProfile(rng, capacity, pubs)
		sg := Summarize(g)
		n := 1 + int(nMembers%8)
		var env Envelope
		members := make([]*Profile, n)
		for i := range members {
			members[i] = randomProfile(rng, capacity, pubs)
			env.Absorb(Summarize(members[i]))
		}
		bound := env.Bound()
		for _, m := range []Metric{MetricIntersect, MetricXor, MetricIOS, MetricIOU} {
			envUB := ClosenessUpperBound(m, sg, bound)
			for i, h := range members {
				if exact := Closeness(m, g, h); envUB < exact {
					t.Fatalf("%v member %d: envelope bound %v < exact %v", m, i, envUB, exact)
				}
			}
		}
	})
}
