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
// publishers' ranks and copies of p's vector headers that share p's words —
// no word is copied — and it caches its total (see Profile). Walks between
// profiles bound to one table compare ranks instead of advertisement IDs, and
// Pubs hands the ranks to allocation's first-fit kernel. A profile already
// bound to the table is returned as it is. Bind panics on a publisher the
// table was not built over, which only a caller bug can produce.
func (t *PublisherTable) Bind(p *Profile) *Profile {
	if p.table == t {
		return p
	}
	b := &Profile{capacity: p.capacity, entries: make([]entry, len(p.entries)), table: t}
	for i := range p.entries {
		e := &p.entries[i]
		r, ok := t.index[e.advID]
		if !ok {
			panic(fmt.Sprintf("bitvector: publisher %q is not in the table", e.advID))
		}
		b.entries[i] = entry{advID: e.advID, vec: e.vec, rank: r}
		b.total += e.vec.count
	}
	return b
}
