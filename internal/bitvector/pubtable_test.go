package bitvector

import (
	"reflect"
	"testing"
)

// TestPublisherTable covers the table's contract: indices are ranks in the
// sorted union of the statistics' and the profiles' publishers, Compile
// lists a profile's vectors in that order as views of the originals, and
// Profile assembles the inverse.
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

	entries := tab.Compile(p)
	wantPubs := []int32{1, 2, 3}
	for i, e := range entries {
		if e.Pub != wantPubs[i] {
			t.Fatalf("entry %d has publisher index %d, want %d", i, e.Pub, wantPubs[i])
		}
	}
	if got, want := entries[0].V.Snapshot(), p.Vector("adv10").Snapshot(); got != want {
		t.Fatalf("compiled view %+v differs from its vector %+v", got, want)
	}

	byPub := make([]*Vector, tab.Len())
	for i := range entries {
		byPub[entries[i].Pub] = entries[i].V.Clone()
	}
	if got := tab.Profile(byPub, 64); !reflect.DeepEqual(got.Snapshot(), p.Snapshot()) ||
		!reflect.DeepEqual(got.Publishers(), p.Publishers()) {
		t.Fatalf("Profile(Compile(p)) = %+v, want %+v", got.Snapshot(), p.Snapshot())
	}

	stranger := NewProfile(64)
	stranger.Record("elsewhere", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Compile accepted a publisher the table does not index")
		}
	}()
	tab.Compile(stranger)
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
