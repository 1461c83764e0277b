package bitvector

import (
	"reflect"
	"testing"
)

// TestPublisherTable covers the table's contract: indices are ranks in the
// sorted union of the statistics' and the profiles' publishers, a profile
// bound to the table lists its vectors in that order through Pub, each a
// copy of the profile's vector that shares its words, and the table records
// the profiles' capacity.
func TestPublisherTable(t *testing.T) {
	stats := map[string]*PublisherStats{
		"adv2":  {AdvID: "adv2", Rate: 2},
		"adv10": {AdvID: "adv10", Rate: 10},
	}
	p := NewProfile(64)
	p.Record("adv2", 5)
	p.Record("adv10", 7)
	p.Record("orphan", 9) // no statistics
	q := NewProfile(64)
	q.Record("orphan", 1)
	q.Record("adv1", 3) // no statistics, sorts first

	tab := NewPublisherTable(stats, []*Profile{p, q})
	if tab.Len() != 4 {
		t.Fatalf("table indexes %d publishers, want 4", tab.Len())
	}
	wantStats := []*PublisherStats{nil, stats["adv10"], stats["adv2"], nil} // adv1 adv10 adv2 orphan
	if !reflect.DeepEqual(tab.Stats(), wantStats) {
		t.Fatalf("stats by index = %v, want %v", tab.Stats(), wantStats)
	}

	b := tab.Bind(p)
	pubs, wantPubs := b.Pubs(), []int32{1, 2, 3}
	if len(pubs) != len(wantPubs) {
		t.Fatalf("bound profile holds %d publishers, want %d", len(pubs), len(wantPubs))
	}
	for i, want := range wantPubs {
		if r, _ := pubs.Pub(i); r != want {
			t.Fatalf("entry %d has publisher index %d, want %d", i, r, want)
		}
	}
	if _, v := pubs.Pub(0); !sharesWords(v, p.Vector("adv10")) {
		t.Fatalf("bound entry 0 holds %+v, not a copy of the profile's adv10 vector %+v", v, p.Vector("adv10"))
	}
	if tab.Bind(b) != b {
		t.Fatal("Bind copied a profile already bound to the table")
	}

	if got := tab.Capacity(); got != 64 {
		t.Fatalf("table over 64-bit profiles has capacity %d", got)
	}
	if got := NewPublisherTable(stats, nil).Capacity(); got != DefaultCapacity {
		t.Fatalf("table over no profiles has capacity %d, want DefaultCapacity %d", got, DefaultCapacity)
	}

	stranger := NewProfile(64)
	stranger.Record("elsewhere", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Bind accepted a publisher the table does not index")
		}
	}()
	tab.Bind(stranger)
}

// TestVectorReset checks the in-place mutator the packing scratch state
// relies on: a reset vector is an empty one of the same capacity, whatever
// it held and however far its window had slid.
func TestVectorReset(t *testing.T) {
	for _, capacity := range []int{100, 1280} {
		v := New(capacity)
		for _, id := range []int{3, 64, 99, 150, 2000} { // 150 and 2000 slide a 100-bit window
			v.Set(id)
		}
		v.Reset()
		if want := New(capacity); v.Snapshot() != want.Snapshot() || v.Count() != 0 {
			t.Fatalf("Reset left %v, want an empty vector of capacity %d", v, capacity)
		}
	}
}
