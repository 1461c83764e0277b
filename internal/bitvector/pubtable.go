package bitvector

import (
	"fmt"
	"slices"
	"sort"
)

// PublisherTable interns advertisement IDs as dense indices for the
// duration of one allocation run: index i names the i-th advertisement ID
// in sorted order, so walking indices in ascending order visits publishers
// exactly as Profile's sorted key slice does. Allocation's first-fit kernel
// relies on that to reproduce EstimateLoad's and IntersectLoad's float
// accumulation order — and therefore their results bit for bit — with
// slice indexing where those functions pay three string-keyed map lookups
// per publisher. A table is immutable once built and safe for concurrent
// use.
type PublisherTable struct {
	ids   []string
	stats []*PublisherStats // nil where the publisher has no statistics entry
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
// and every publisher appearing in the given profiles.
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
		for _, k := range p.keys {
			if i := sort.SearchStrings(ids[:known], k); i < known && ids[i] == k {
				continue
			}
			if !slices.Contains(ids[known:], k) {
				ids = append(ids, k)
			}
		}
	}
	if len(ids) > known {
		sort.Strings(ids)
	}
	t := &PublisherTable{ids: ids, stats: make([]*PublisherStats, len(ids))}
	for i, id := range ids {
		t.stats[i] = stats[id]
	}
	return t
}

// Len returns the number of indexed publishers.
func (t *PublisherTable) Len() int { return len(t.ids) }

// Stats returns the per-index publisher statistics, nil where a publisher
// has none. The slice is shared and must not be modified.
func (t *PublisherTable) Stats() []*PublisherStats { return t.stats }

// Compile lists the profile's vectors by table index, ascending, as views
// that share the profile's bit storage. It panics on a publisher the table
// was not built over, which only a caller bug can produce.
func (t *PublisherTable) Compile(p *Profile) []PubVector {
	out := make([]PubVector, len(p.keys))
	at := 0
	for i, k := range p.keys {
		// Both key lists are sorted, so the search resumes where the
		// previous key was found.
		at += sort.SearchStrings(t.ids[at:], k)
		if at == len(t.ids) || t.ids[at] != k {
			panic(fmt.Sprintf("bitvector: publisher %q is not in the table", k))
		}
		out[i] = PubVector{Pub: int32(at), V: *p.vectors[k]}
	}
	return out
}

// Profile assembles a profile of the given vector capacity from vectors
// indexed by this table (nil = publisher absent). The profile takes
// ownership of the vectors.
func (t *PublisherTable) Profile(byPub []*Vector, capacity int) *Profile {
	p := NewProfile(capacity)
	for i, v := range byPub {
		if v != nil {
			p.keys = append(p.keys, t.ids[i])
			p.vectors[t.ids[i]] = v
		}
	}
	return p
}
