package bitvector

import (
	"encoding/binary"
	"slices"
	"testing"
)

// walkAdvIDs are the advertisement IDs the bound-walk fuzzer draws from:
// "A", "A\x00" and "AB" order one way as bytes and "A" prefixes the other
// two, so a walk keyed by anything but the table's sorted order, or by a
// rank read against the wrong table, pairs the wrong publishers.
var walkAdvIDs = []string{"A", "A\x00", "AB", "B", "", "Z"}

// walkExtraIDs widen the second table only: they sort among walkAdvIDs, so
// every publisher's rank differs between the two tables.
var walkExtraIDs = []string{"0", "A\x00\x00", "AA", "Y"}

// boundWalkProfiles decodes three profiles of one capacity (keyCapacities,
// by index) from steps, four bytes a step: the first picks the target
// (bits 0-1: all three, else the first, second or third) and the action
// (bit 2: Observe, else Record), the next two a signed 16-bit message ID,
// the last the publisher (walkAdvIDs, by index). Observing past a recorded
// ID empties a vector; a step on one profile leaves a publisher missing
// from the others.
func boundWalkProfiles(capacity byte, steps []byte) []*Profile {
	ps := make([]*Profile, 3)
	for i := range ps {
		ps[i] = NewProfile(keyCapacities[int(capacity)%len(keyCapacities)])
	}
	for ; len(steps) >= 4; steps = steps[4:] {
		id := int(int16(binary.LittleEndian.Uint16(steps[1:3])))
		adv := walkAdvIDs[int(steps[3])%len(walkAdvIDs)]
		target := int(steps[0] & 3)
		for k, p := range ps {
			if target != 0 && target != k+1 {
				continue
			}
			if steps[0]&4 != 0 {
				if v := p.Vector(adv); v != nil {
					v.Observe(id)
				}
				continue
			}
			p.Record(adv, id)
		}
	}
	return ps
}

// checkBoundProfile holds a bound profile to the binding invariant: each
// entry's rank names its ID in the table, and the cached total is the sum
// of the vectors' counts.
func checkBoundProfile(t *testing.T, p *Profile, what string) {
	t.Helper()
	if p.table == nil {
		return
	}
	n := 0
	for _, e := range p.entries {
		if r, ok := p.table.index[e.advID]; !ok || r != e.rank {
			t.Fatalf("%s: entry %q carries rank %d", what, e.advID, e.rank)
		}
		n += e.vec.count
	}
	if p.total != n {
		t.Fatalf("%s: cached total %d, vectors hold %d", what, p.total, n)
	}
}

// sameEntries reports whether two profiles list the same publishers with
// equal vectors, window included.
func sameEntries(a, b *Profile) bool {
	return slices.EqualFunc(a.entries, b.entries, func(x, y entry) bool {
		return x.advID == y.advID && x.vec.Snapshot() == y.vec.Snapshot()
	})
}

// sharesWords reports whether v is a copy of w's header that shares w's
// words, as a bound copy's vector is of its source's.
func sharesWords(v, w *Vector) bool {
	return v.firstID == w.firstID && v.lastID == w.lastID && v.capacity == w.capacity && v.count == w.count &&
		len(v.words) == len(w.words) && &v.words[0] == &w.words[0]
}

var walkMetrics = []Metric{MetricIntersect, MetricXor, MetricIOS, MetricIOU}

// FuzzBoundWalks holds every walk that keys on ranks to the same walk over
// the unbound profiles: three profiles decoded from the input
// (boundWalkProfiles), each left unbound or bound to one of two tables whose
// ranks differ (binding, two bits a profile), and then IntersectCount,
// Closeness under all four metrics, Relate and DiffCount of every ordered
// pair, the OR of all three, Bind to either table with the ranks and vectors
// Pub reads, ClosenessUpperBound over their summaries and an Envelope
// absorbing them. Profiles bound to different tables must be walked by ID.
func FuzzBoundWalks(f *testing.F) {
	f.Fuzz(func(t *testing.T, binding, capacity byte, steps []byte) {
		plain := boundWalkProfiles(capacity, steps)
		extra := make(map[string]*PublisherStats)
		for _, id := range walkExtraIDs {
			extra[id] = &PublisherStats{AdvID: id}
		}
		tables := []*PublisherTable{NewPublisherTable(nil, plain), NewPublisherTable(extra, plain)}
		walked := make([]*Profile, len(plain))
		for i, p := range plain {
			walked[i] = p
			if k := int(binding>>(2*i)) & 3; k > 0 {
				walked[i] = tables[(k-1)%2].Bind(p)
				checkBoundProfile(t, walked[i], "bound")
			}
		}
		for i := range plain {
			for j := range plain {
				a, b, x, y := plain[i], plain[j], walked[i], walked[j]
				if got, want := IntersectCount(x, y), IntersectCount(a, b); got != want {
					t.Fatalf("IntersectCount(%d, %d) = %d bound, %d unbound", i, j, got, want)
				}
				if got, want := Relate(x, y), Relate(a, b); got != want {
					t.Fatalf("Relate(%d, %d) = %v bound, %v unbound", i, j, got, want)
				}
				if got, want := DiffCount(x, y), DiffCount(a, b); got != want {
					t.Fatalf("DiffCount(%d, %d) = %d bound, %d unbound", i, j, got, want)
				}
				sx, sy, sa, sb := Summarize(x), Summarize(y), Summarize(a), Summarize(b)
				for _, m := range walkMetrics {
					if got, want := Closeness(m, x, y), Closeness(m, a, b); got != want {
						t.Fatalf("%v closeness(%d, %d) = %v bound, %v unbound", m, i, j, got, want)
					}
					if got, want := ClosenessUpperBound(m, sx, sy), ClosenessUpperBound(m, sa, sb); got != want {
						t.Fatalf("%v upper bound(%d, %d) = %v bound, %v unbound", m, i, j, got, want)
					}
				}
			}
		}

		// The OR of all three, started from an empty profile: bound exactly
		// when every operand is bound to one table.
		orPlain, orWalked := NewProfile(plain[0].capacity), NewProfile(plain[0].capacity)
		for i := range plain {
			orPlain.Or(plain[i])
			orWalked.Or(walked[i])
			checkBoundProfile(t, orWalked, "OR")
		}
		if !sameEntries(orWalked, orPlain) || orWalked.Count() != orPlain.Count() {
			t.Fatalf("OR: %d entries, count %d bound; %d entries, count %d unbound",
				len(orWalked.entries), orWalked.Count(), len(orPlain.entries), orPlain.Count())
		}
		if one := walked[0].table; orWalked.table != one && walked[1].table == one && walked[2].table == one {
			t.Fatalf("OR of three profiles bound to one table is bound to %p, want %p", orWalked.table, one)
		}

		// Bind to either table, from unbound, from bound to the other table
		// or from bound to this one: one list of ranks and vectors.
		for ti, tab := range tables {
			for i := range plain {
				got, want := tab.Bind(walked[i]), tab.Bind(plain[i])
				checkBoundProfile(t, got, "rebound")
				if walked[i].table == tab && got != walked[i] {
					t.Fatalf("table %d: Bind(%d) copied a profile already bound to it", ti, i)
				}
				gp, wp := got.Pubs(), want.Pubs()
				if len(gp) != len(wp) {
					t.Fatalf("table %d: Bind(%d) lists %d publishers bound, %d unbound", ti, i, len(gp), len(wp))
				}
				for k := range gp {
					rg, vg := gp.Pub(k)
					rw, vw := wp.Pub(k)
					if rg != rw || !sharesWords(vg, vw) || k > 0 && got.entries[k-1].rank >= rg {
						t.Fatalf("table %d: Bind(%d) entry %d is rank %d of %p bound, rank %d of %p unbound", ti, i, k, rg, vg, rw, vw)
					}
				}
			}
		}

		var envWalked, envPlain Envelope
		for i := range plain {
			envWalked.Absorb(Summarize(walked[i]))
			envPlain.Absorb(Summarize(plain[i]))
		}
		bw, bp := envWalked.Bound(), envPlain.Bound()
		if bw.total != bp.total || !slices.EqualFunc(bw.pubs, bp.pubs, func(x, y pubSummary) bool {
			return x.advID == y.advID && x.count == y.count && x.first == y.first && x.last == y.last
		}) {
			t.Fatalf("envelope: %+v bound, %+v unbound", bw.pubs, bp.pubs)
		}
		for i := range plain {
			sx, sa := Summarize(walked[i]), Summarize(plain[i])
			for _, m := range walkMetrics {
				if got, want := ClosenessUpperBound(m, sx, bw), ClosenessUpperBound(m, sa, bp); got != want {
					t.Fatalf("%v envelope bound of %d = %v bound, %v unbound", m, i, got, want)
				}
			}
		}
	})
}
