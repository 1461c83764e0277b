package bitvector

import (
	"fmt"
	"slices"
	"sort"
)

// PublisherTable interns advertisement IDs as dense indices for the
// duration of one allocation run: index i names the i-th advertisement ID
// in sorted order, so walking indices in ascending order visits publishers
// exactly as Profile's sorted entries do. Allocation's first-fit kernel
// relies on that to reproduce EstimateLoad's and IntersectLoad's float
// accumulation order — and therefore their results bit for bit — with
// slice indexing where those functions pay string compares and a statistics
// map lookup per publisher. A table is immutable once built and safe for
// concurrent use.
type PublisherTable struct {
	index map[string]int32  // each advertisement ID's rank: its sorted index
	stats []*PublisherStats // by rank; nil where the publisher has no statistics entry
	// capacity is the first indexed profile's, DefaultCapacity without one.
	capacity int
}

// PubVector is one publisher's vector of a compiled profile. V is a
// read-only view: a copy of the profile vector's header that shares its bit
// storage, held by value so that a walk over compiled entries finds window
// and storage pointer on the cache line it is already reading instead of
// behind one more pointer. It is valid for as long as the profile stays
// unmodified — which holds while an allocation algorithm runs (see Profile).
type PubVector struct {
	Pub int32
	V   Vector
}

// NewPublisherTable indexes the union of the statistics' advertisement IDs
// and every publisher appearing in the given profiles, and records the
// profiles' vector capacity: the first profile's, which a validated
// allocation input guarantees is every profile's.
func NewPublisherTable(stats map[string]*PublisherStats, profiles []*Profile) *PublisherTable {
	ids := make([]string, 0, len(stats))
	for id := range stats {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	// Publishers a profile saw but no statistics describe are rare (the
	// workloads report every publisher), so the extras are merged in once
	// at the end.
	known := len(ids)
	for _, p := range profiles {
		for _, e := range p.entries {
			if _, ok := stats[e.advID]; !ok && !slices.Contains(ids[known:], e.advID) {
				ids = append(ids, e.advID)
			}
		}
	}
	if len(ids) > known {
		sort.Strings(ids)
	}
	t := &PublisherTable{index: make(map[string]int32, len(ids)), stats: make([]*PublisherStats, len(ids)), capacity: DefaultCapacity}
	if len(profiles) > 0 {
		t.capacity = profiles[0].capacity
	}
	for i, id := range ids {
		t.index[id] = int32(i)
		t.stats[i] = stats[id]
	}
	return t
}

// Len returns the number of indexed publishers.
func (t *PublisherTable) Len() int { return len(t.stats) }

// Capacity returns the vector capacity of the run the table indexes: the
// one place an allocation run reads it.
func (t *PublisherTable) Capacity() int { return t.capacity }

// Stats returns the per-index publisher statistics, nil where a publisher
// has none. The slice is shared and must not be modified.
func (t *PublisherTable) Stats() []*PublisherStats { return t.stats }

// Bind returns a copy of p bound to the table: its entries carry their
// publishers' ranks, it shares p's vectors — no word is copied — and it
// caches its total (see Profile). Walks between profiles bound to one table
// compare ranks instead of advertisement IDs, and Compile reads the ranks
// instead of looking them up. A profile already bound to the table is
// returned as it is. Bind panics on a publisher the table was not built
// over, which only a caller bug can produce.
func (t *PublisherTable) Bind(p *Profile) *Profile {
	if p.table == t {
		return p
	}
	b := &Profile{capacity: p.capacity, entries: make([]entry, len(p.entries)), table: t}
	for i, e := range p.entries {
		b.entries[i] = entry{advID: e.advID, vec: e.vec, rank: t.rank(e.advID)}
		b.total += e.vec.count
	}
	return b
}

// rank returns the index of advID in the table. It panics on an ID the
// table does not hold.
func (t *PublisherTable) rank(advID string) int32 {
	r, ok := t.index[advID]
	if !ok {
		panic(fmt.Sprintf("bitvector: publisher %q is not in the table", advID))
	}
	return r
}

// Compile lists the profile's vectors by table index, ascending, as views
// that share the profile's bit storage: a profile bound to the table gives
// its ranks, any other is looked up. It panics on a publisher the table was
// not built over, which only a caller bug can produce.
func (t *PublisherTable) Compile(p *Profile) []PubVector {
	out := make([]PubVector, len(p.entries))
	for i, e := range p.entries {
		r := e.rank
		if p.table != t {
			r = t.rank(e.advID)
		}
		out[i] = PubVector{Pub: r, V: *e.vec}
	}
	return out
}
