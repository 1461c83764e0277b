package bitvector

import (
	"fmt"
	"math"
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
	// ratesOrdered records that every statistics entry's Rate is finite and
	// non-negative, checked once at construction.
	ratesOrdered bool
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
	t := &PublisherTable{ids: ids, stats: make([]*PublisherStats, len(ids)), ratesOrdered: true}
	for i, id := range ids {
		st := stats[id]
		t.stats[i] = st
		if st != nil && !(st.Rate >= 0 && st.Rate <= math.MaxFloat64) {
			t.ratesOrdered = false
		}
	}
	return t
}

// Len returns the number of indexed publishers.
func (t *PublisherTable) Len() int { return len(t.ids) }

// Stats returns the per-index publisher statistics, nil where a publisher
// has none. The slice is shared and must not be modified.
func (t *PublisherTable) Stats() []*PublisherStats { return t.stats }

// RatesOrdered reports whether every publisher's Rate was finite and
// non-negative when the table was built. Only then is a sum of rate ×
// fraction terms monotone in its fractions under floating-point rounding —
// what allocation's rate-bound rejection rests on (DESIGN.md §7.1); a NaN,
// infinite or negative rate turns the bound off for the run.
func (t *PublisherTable) RatesOrdered() bool { return t.ratesOrdered }

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

// Profile assembles a profile of the given vector capacity from vectors
// indexed by this table (nil = publisher absent). The profile takes
// ownership of the vectors.
func (t *PublisherTable) Profile(byPub []*Vector, capacity int) *Profile {
	p := NewProfile(capacity)
	for i, v := range byPub {
		if v != nil {
			p.entries = append(p.entries, entry{t.ids[i], v})
		}
	}
	return p
}

// HashCompiled hashes a compiled profile's exact content — publisher index,
// window, capacity and words of every entry — for interning. Equal content
// hashes equal; the converse is CompiledEqual's to decide.
func HashCompiled(entries []PubVector) uint64 {
	const prime = 0x100000001b3
	h := uint64(0xcbf29ce484222325)
	mix := func(x uint64) { h = (h ^ x) * prime }
	for i := range entries {
		e := &entries[i]
		mix(uint64(e.Pub))
		mix(uint64(e.V.firstID))
		mix(uint64(e.V.lastID))
		mix(uint64(e.V.capacity))
		for _, w := range e.V.words {
			mix(w)
		}
	}
	return h
}

// CompiledEqual reports whether two compiled profiles hold exactly the same
// content: the same publishers in the same order, each with the same
// firstID, lastID, capacity, popcount and words. Stricter than equal
// fingerprints, which ignore where a window starts and ends; two lists that
// pass are interchangeable in every vector operation.
func CompiledEqual(a, b []PubVector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := &a[i], &b[i]
		if x.Pub != y.Pub || x.V.firstID != y.V.firstID || x.V.lastID != y.V.lastID ||
			x.V.capacity != y.V.capacity || x.V.count != y.V.count || !slices.Equal(x.V.words, y.V.words) {
			return false
		}
	}
	return true
}
