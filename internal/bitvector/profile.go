package bitvector

import (
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"
)

// PublisherStats is the publisher profile of Section III-B: the
// advertisement ID identifies the publisher; rate and bandwidth let CROC
// estimate the load a subscription imposes; LastSeq synchronizes the message
// ID counters of all bit vectors recorded against this publisher.
type PublisherStats struct {
	// AdvID is the publisher's globally unique advertisement ID.
	AdvID string `json:"adv"`
	// Rate is the publication rate in messages per second.
	Rate float64 `json:"rate"`
	// Bandwidth is the publication bandwidth in bytes per second.
	Bandwidth float64 `json:"bw"`
	// LastSeq is the message ID of the last publication sent.
	LastSeq int `json:"last"`
}

// Relationship classifies how two profiles relate as sets of sunk
// publications (Section IV-C.1/2). The poset orders GIFs by it.
type Relationship int

// Relationship values. Superset means "a strictly contains b".
const (
	RelEqual Relationship = iota + 1
	RelSuperset
	RelSubset
	RelIntersect
	RelEmpty
)

// String returns a readable relationship name.
func (r Relationship) String() string {
	switch r {
	case RelEqual:
		return "equal"
	case RelSuperset:
		return "superset"
	case RelSubset:
		return "subset"
	case RelIntersect:
		return "intersect"
	case RelEmpty:
		return "empty"
	default:
		return fmt.Sprintf("Relationship(%d)", int(r))
	}
}

// Metric selects a closeness metric for CRAM (Section IV-C).
type Metric int

// The four closeness metrics evaluated in the paper.
const (
	// MetricIntersect is |S1 ∩ S2|.
	MetricIntersect Metric = iota + 1
	// MetricXor is 1/|S1 ⊕ S2| capped at XorCap, derived from Gryphon.
	MetricXor
	// MetricIOS is |S1 ∩ S2|² / (|S1| + |S2|).
	MetricIOS
	// MetricIOU is |S1 ∩ S2|² / |S1 ∪ S2|.
	MetricIOU
)

// XorCap bounds the XOR metric to handle division by zero: two identical
// profiles have XOR cardinality 0 and closeness XorCap.
const XorCap = 1e9

// String returns the paper's name for the metric.
func (m Metric) String() string {
	switch m {
	case MetricIntersect:
		return "INTERSECT"
	case MetricXor:
		return "XOR"
	case MetricIOS:
		return "IOS"
	case MetricIOU:
		return "IOU"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// Profile is a subscription profile: one windowed bit vector per publisher
// the subscription received publications from, keyed by advertisement ID.
//
// Concurrency: a Profile is not synchronized. Any number of goroutines may
// call the read-only functions concurrently on the same profiles
// (Closeness, Relate, IntersectCount, UnionCount, DiffCount,
// XorProfileCount, EstimateLoad, IntersectLoad, Count, Empty, Vector,
// Publishers, FingerprintKey, Clone, Snapshot) as long as no goroutine is
// mutating them; the mutators (Record, Sync, Or) require exclusive access.
// The parallel CRAM paths rely on this: profiles are frozen while the
// allocation algorithms run.
type Profile struct {
	capacity int
	// entries holds one vector per publisher in ascending advertisement ID,
	// the one order every walk visits them in: float accumulation in
	// EstimateLoad/IntersectLoad is order-sensitive, so load estimates are
	// bit-for-bit reproducible between runs only because the order is fixed.
	entries []entry
}

// entry is one publisher's vector in a Profile.
type entry struct {
	advID string
	vec   *Vector
}

// NewProfile returns an empty profile whose vectors will have the given
// capacity (DefaultCapacity when cap <= 0).
func NewProfile(capacity int) *Profile {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Profile{capacity: capacity}
}

// search returns the position of advID in p.entries, or where it would be
// inserted, and whether it is present.
func (p *Profile) search(advID string) (int, bool) {
	return slices.BinarySearchFunc(p.entries, advID, func(e entry, id string) int {
		return strings.Compare(e.advID, id)
	})
}

// Record marks that the publication (advID, seq) was sunk by this
// subscription, creating the per-publisher vector on first use.
func (p *Profile) Record(advID string, seq int) {
	i, ok := p.search(advID)
	if !ok {
		p.entries = slices.Insert(p.entries, i, entry{advID, New(p.capacity)})
	}
	p.entries[i].vec.Set(seq)
}

// Sync advances every per-publisher window to the publisher's last sent
// message ID so that unmatched publications count against the window.
func (p *Profile) Sync(stats map[string]*PublisherStats) {
	for _, e := range p.entries {
		if st, ok := stats[e.advID]; ok {
			e.vec.Observe(st.LastSeq)
		}
	}
}

// Vector returns the vector for a publisher, or nil.
func (p *Profile) Vector(advID string) *Vector {
	if i, ok := p.search(advID); ok {
		return p.entries[i].vec
	}
	return nil
}

// Publishers returns the advertisement IDs present, sorted for determinism.
func (p *Profile) Publishers() []string {
	out := make([]string, len(p.entries))
	for i, e := range p.entries {
		out[i] = e.advID
	}
	return out
}

// Clone returns a deep copy.
func (p *Profile) Clone() *Profile {
	cp := &Profile{capacity: p.capacity, entries: make([]entry, len(p.entries))}
	for i, e := range p.entries {
		cp.entries[i] = entry{e.advID, e.vec.Clone()}
	}
	return cp
}

// Or merges another profile into p (the OR bit operation of Figure 1,
// used when clustering subscriptions and when aggregating a broker's hosted
// subscriptions into a pseudo-subscription in Phase 3).
func (p *Profile) Or(o *Profile) {
	i := 0
	for _, oe := range o.entries {
		for i < len(p.entries) && p.entries[i].advID < oe.advID {
			i++
		}
		if i == len(p.entries) || p.entries[i].advID != oe.advID {
			p.entries = slices.Insert(p.entries, i, entry{oe.advID, New(p.capacity)})
		}
		p.entries[i].vec.Or(oe.vec)
		i++
	}
}

// Merged returns a new profile equal to the OR of all given profiles.
func Merged(capacity int, profiles ...*Profile) *Profile {
	out := NewProfile(capacity)
	for _, pr := range profiles {
		if pr != nil {
			out.Or(pr)
		}
	}
	return out
}

// Count returns the total number of set bits across all publishers. Each
// per-vector popcount is an O(1) cached load, so the sum is O(publishers)
// regardless of capacity. The per-vector caches — not a profile-level total
// — are authoritative because callers legitimately mutate individual
// vectors in place via p.Vector(adv).Observe(...)/Set(...).
func (p *Profile) Count() int {
	n := 0
	for _, e := range p.entries {
		n += e.vec.count
	}
	return n
}

// Empty reports whether the profile sank no publications at all,
// early-exiting on the first publisher with any set bit.
func (p *Profile) Empty() bool {
	for _, e := range p.entries {
		if e.vec.count != 0 {
			return false
		}
	}
	return true
}

// IntersectCount returns |a ∩ b| summed across publishers: one AndCount per
// common publisher, met in a merge walk over the two sorted lists. It is the
// only pairwise profile walk that counts bits; a profile is a set of
// (publisher, message ID) pairs of cardinality Count(), so the union,
// difference and symmetric-difference cardinalities below, Closeness and
// Relate are all arithmetic on it.
func IntersectCount(a, b *Profile) int {
	n := 0
	i, j := 0, 0
	for i < len(a.entries) && j < len(b.entries) {
		switch ea, eb := &a.entries[i], &b.entries[j]; {
		case ea.advID == eb.advID:
			n += AndCount(ea.vec, eb.vec)
			i++
			j++
		case ea.advID < eb.advID:
			i++
		default:
			j++
		}
	}
	return n
}

// UnionCount returns |a ∪ b| summed across publishers.
func UnionCount(a, b *Profile) int {
	return a.Count() + b.Count() - IntersectCount(a, b)
}

// DiffCount returns |a \ b| summed across publishers: the bits of a not
// covered by b. The greedy set-cover step of one-to-many clustering uses it
// to rank covered GIFs by uncovered contribution.
func DiffCount(a, b *Profile) int {
	return a.Count() - IntersectCount(a, b)
}

// XorProfileCount returns |a ⊕ b| summed across publishers.
func XorProfileCount(a, b *Profile) int {
	return a.Count() + b.Count() - 2*IntersectCount(a, b)
}

// Closeness evaluates the chosen metric between two profiles. Higher is
// always more favorable; INTERSECT, IOS, and IOU return exactly 0 for
// profiles with an empty relationship, which is what enables the poset
// search pruning of Section IV-C.2. XOR does not have that property.
func Closeness(m Metric, a, b *Profile) float64 {
	switch m {
	case MetricIntersect:
		return float64(IntersectCount(a, b))
	case MetricXor:
		x := XorProfileCount(a, b)
		if x == 0 {
			return XorCap
		}
		c := 1 / float64(x)
		if c > XorCap {
			return XorCap
		}
		return c
	case MetricIOS:
		i := float64(IntersectCount(a, b))
		den := float64(a.Count() + b.Count())
		if den == 0 {
			return 0
		}
		return i * i / den
	case MetricIOU:
		i := IntersectCount(a, b)
		den := float64(a.Count() + b.Count() - i)
		if den == 0 {
			return 0
		}
		return float64(i) * float64(i) / den
	default:
		return 0
	}
}

// Relate classifies the set relationship between two profiles over
// (publisher, message ID) pairs, implementing the multi-bit-vector
// relationship identification the paper defers to its online appendix.
// Profiles that sank nothing are the empty set: equal to each other and a
// subset of any non-empty profile.
func Relate(a, b *Profile) Relationship {
	both := IntersectCount(a, b) // |a ∩ b|
	onlyA := a.Count() - both    // |a \ b|
	onlyB := b.Count() - both    // |b \ a|
	switch {
	case onlyA == 0 && onlyB == 0:
		return RelEqual
	case onlyB == 0: // b ⊂ a, the empty b included
		return RelSuperset
	case onlyA == 0: // a ⊂ b, the empty a included
		return RelSubset
	case both > 0:
		return RelIntersect
	default:
		return RelEmpty
	}
}

// Load is an estimated (rate, bandwidth) requirement pair in msgs/s and
// bytes/s.
type Load struct {
	Rate      float64 `json:"rate"`
	Bandwidth float64 `json:"bw"`
}

// Add returns the component-wise sum.
func (l Load) Add(o Load) Load {
	return Load{Rate: l.Rate + o.Rate, Bandwidth: l.Bandwidth + o.Bandwidth}
}

// EstimateLoad computes the publication traffic a profile sinks, per
// Section III-B: for each publisher, the set-bit fraction of the window
// times the publisher's rate and bandwidth (e.g. 10 of 100 bits set against
// a 50 msg/s, 50 kB/s publisher induces 5 msg/s and 5 kB/s).
func EstimateLoad(p *Profile, stats map[string]*PublisherStats) Load {
	// Accumulate in ascending publisher order: float addition is not
	// associative, so any other order would change the result bit-for-bit
	// and break exact plan comparison.
	var out Load
	for _, e := range p.entries {
		st, ok := stats[e.advID]
		if !ok {
			continue
		}
		f := e.vec.Fraction()
		out.Rate += st.Rate * f
		out.Bandwidth += st.Bandwidth * f
	}
	return out
}

// IntersectLoad estimates the traffic sunk by BOTH profiles: for each
// common publisher, the intersection cardinality over the wider of the two
// windows. Together with EstimateLoad it lets allocation compute the load
// of a union incrementally — load(a ∪ b) = load(a) + load(b) − load(a ∩ b)
// — without materializing the OR'd profile. Exact when the two windows
// coincide, which holds when all profiles were collected over the same
// publication run.
func IntersectLoad(a, b *Profile, stats map[string]*PublisherStats) Load {
	// The merge walk meets the common publishers in ascending order, the
	// order EstimateLoad sums in, whichever profile is passed first.
	var out Load
	i, j := 0, 0
	for i < len(a.entries) && j < len(b.entries) {
		switch ea, eb := &a.entries[i], &b.entries[j]; {
		case ea.advID == eb.advID:
			i++
			j++
			st, ok := stats[ea.advID]
			w := max(ea.vec.Window(), eb.vec.Window())
			if !ok || w == 0 {
				continue
			}
			f := float64(AndCount(ea.vec, eb.vec)) / float64(w)
			out.Rate += st.Rate * f
			out.Bandwidth += st.Bandwidth * f
		case ea.advID < eb.advID:
			i++
		default:
			j++
		}
	}
	return out
}

// FingerprintKey returns a canonical string identifying the exact set of
// (publisher, bit) pairs in the profile. Two profiles have equal keys iff
// they sank exactly the same publications; the GIF optimization
// (Section IV-C.1) groups subscriptions by this key.
func (p *Profile) FingerprintKey() string {
	var key []byte
	for _, e := range p.entries {
		v := e.vec
		if v.count == 0 {
			continue
		}
		key = append(key, e.advID...)
		key = append(key, ':')
		// The window's set bits in ascending ID order, a word at a time; no
		// word holds a bit outside the window.
		base := v.firstID &^ (wordBits - 1)
		for i, w := range v.words {
			for ; w != 0; w &= w - 1 {
				key = strconv.AppendInt(key, int64(base+i*wordBits+bits.TrailingZeros64(w)), 10)
				key = append(key, ',')
			}
		}
		key = append(key, ';')
	}
	return string(key)
}
