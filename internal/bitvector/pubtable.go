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
	ids   []string
	stats []*PublisherStats // nil where the publisher has no statistics entry
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
	// workloads report every publisher), so membership is a search of the
	// sorted statistics keys and the extras are merged in once at the end.
	known := len(ids)
	for _, p := range profiles {
		for _, e := range p.entries {
			if i := sort.SearchStrings(ids[:known], e.advID); i < known && ids[i] == e.advID {
				continue
			}
			if !slices.Contains(ids[known:], e.advID) {
				ids = append(ids, e.advID)
			}
		}
	}
	if len(ids) > known {
		sort.Strings(ids)
	}
	t := &PublisherTable{ids: ids, stats: make([]*PublisherStats, len(ids)), capacity: DefaultCapacity}
	if len(profiles) > 0 {
		t.capacity = profiles[0].capacity
	}
	for i, id := range ids {
		t.stats[i] = stats[id]
	}
	return t
}

// Len returns the number of indexed publishers.
func (t *PublisherTable) Len() int { return len(t.ids) }

// Capacity returns the vector capacity of the run the table indexes: the
// one place an allocation run reads it.
func (t *PublisherTable) Capacity() int { return t.capacity }

// Stats returns the per-index publisher statistics, nil where a publisher
// has none. The slice is shared and must not be modified.
func (t *PublisherTable) Stats() []*PublisherStats { return t.stats }

// Compile lists the profile's vectors by table index, ascending, as views
// that share the profile's bit storage. It panics on a publisher the table
// was not built over, which only a caller bug can produce.
func (t *PublisherTable) Compile(p *Profile) []PubVector {
	out := make([]PubVector, len(p.entries))
	at := 0
	for i, e := range p.entries {
		// Both ID lists are sorted, so the search resumes where the
		// previous ID was found.
		at += sort.SearchStrings(t.ids[at:], e.advID)
		if at == len(t.ids) || t.ids[at] != e.advID {
			panic(fmt.Sprintf("bitvector: publisher %q is not in the table", e.advID))
		}
		out[i] = PubVector{Pub: int32(at), V: *e.vec}
	}
	return out
}
