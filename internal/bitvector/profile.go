package bitvector

import (
	"fmt"
	"math/bits"
	"sort"
	"strconv"
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
	vectors  map[string]*Vector
	// keys mirrors the map keys in sorted order and is maintained eagerly
	// by the mutators (no lazy rebuild — that would race with the
	// concurrent read-only callers documented above). Every aggregation
	// loop walks keys instead of the map: float accumulation in
	// EstimateLoad/IntersectLoad is order-sensitive, so map iteration
	// would make load estimates differ bit-for-bit between runs.
	keys []string
}

// NewProfile returns an empty profile whose vectors will have the given
// capacity (DefaultCapacity when cap <= 0).
func NewProfile(capacity int) *Profile {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Profile{capacity: capacity, vectors: make(map[string]*Vector)}
}

// Record marks that the publication (advID, seq) was sunk by this
// subscription, creating the per-publisher vector on first use.
func (p *Profile) Record(advID string, seq int) {
	v, ok := p.vectors[advID]
	if !ok {
		v = New(p.capacity)
		p.vectors[advID] = v
		p.insertKey(advID)
	}
	v.Set(seq)
}

// insertKey adds a newly created advertisement ID to the sorted key slice.
func (p *Profile) insertKey(advID string) {
	i := sort.SearchStrings(p.keys, advID)
	p.keys = append(p.keys, "")
	copy(p.keys[i+1:], p.keys[i:])
	p.keys[i] = advID
}

// Sync advances every per-publisher window to the publisher's last sent
// message ID so that unmatched publications count against the window.
func (p *Profile) Sync(stats map[string]*PublisherStats) {
	for _, advID := range p.keys {
		if st, ok := stats[advID]; ok {
			p.vectors[advID].Observe(st.LastSeq)
		}
	}
}

// Vector returns the vector for a publisher, or nil.
func (p *Profile) Vector(advID string) *Vector { return p.vectors[advID] }

// Publishers returns the advertisement IDs present, sorted for determinism.
func (p *Profile) Publishers() []string {
	return append([]string(nil), p.keys...)
}

// Clone returns a deep copy.
func (p *Profile) Clone() *Profile {
	cp := NewProfile(p.capacity)
	cp.keys = append(cp.keys, p.keys...)
	for _, k := range p.keys {
		cp.vectors[k] = p.vectors[k].Clone()
	}
	return cp
}

// Or merges another profile into p (the OR bit operation of Figure 1,
// used when clustering subscriptions and when aggregating a broker's hosted
// subscriptions into a pseudo-subscription in Phase 3).
func (p *Profile) Or(o *Profile) {
	for _, advID := range o.keys {
		v, ok := p.vectors[advID]
		if !ok {
			v = New(p.capacity)
			p.vectors[advID] = v
			p.insertKey(advID)
		}
		v.Or(o.vectors[advID])
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
	for _, k := range p.keys {
		n += p.vectors[k].count
	}
	return n
}

// Empty reports whether the profile sank no publications at all,
// early-exiting on the first publisher with any set bit.
func (p *Profile) Empty() bool {
	for _, k := range p.keys {
		if p.vectors[k].count != 0 {
			return false
		}
	}
	return true
}

// IntersectCount returns |a ∩ b| summed across publishers.
func IntersectCount(a, b *Profile) int {
	n := 0
	for _, advID := range a.keys {
		if bv, ok := b.vectors[advID]; ok {
			n += AndCount(a.vectors[advID], bv)
		}
	}
	return n
}

// UnionCount returns |a ∪ b| summed across publishers.
func UnionCount(a, b *Profile) int {
	n := 0
	for _, advID := range a.keys {
		av := a.vectors[advID]
		if bv, ok := b.vectors[advID]; ok {
			n += OrCount(av, bv)
		} else {
			n += av.Count()
		}
	}
	for _, advID := range b.keys {
		if _, ok := a.vectors[advID]; !ok {
			n += b.vectors[advID].Count()
		}
	}
	return n
}

// DiffCount returns |a \ b| summed across publishers: the bits of a not
// covered by b. The greedy set-cover step of one-to-many clustering uses it
// to rank covered GIFs by uncovered contribution.
func DiffCount(a, b *Profile) int {
	n := 0
	for _, advID := range a.keys {
		av := a.vectors[advID]
		if bv, ok := b.vectors[advID]; ok {
			n += AndNotCount(av, bv)
		} else {
			n += av.Count()
		}
	}
	return n
}

// XorProfileCount returns |a ⊕ b| summed across publishers.
func XorProfileCount(a, b *Profile) int {
	n := 0
	for _, advID := range a.keys {
		av := a.vectors[advID]
		if bv, ok := b.vectors[advID]; ok {
			n += XorCount(av, bv)
		} else {
			n += av.Count()
		}
	}
	for _, advID := range b.keys {
		if _, ok := a.vectors[advID]; !ok {
			n += b.vectors[advID].Count()
		}
	}
	return n
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
		i := float64(IntersectCount(a, b))
		den := float64(UnionCount(a, b))
		if den == 0 {
			return 0
		}
		return i * i / den
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
	onlyA := 0 // |a \ b|
	onlyB := 0 // |b \ a|
	both := 0  // |a ∩ b|
	for _, advID := range a.keys {
		av := a.vectors[advID]
		if bv, ok := b.vectors[advID]; ok {
			both += AndCount(av, bv)
			onlyA += AndNotCount(av, bv)
			onlyB += AndNotCount(bv, av)
		} else {
			onlyA += av.Count()
		}
	}
	for _, advID := range b.keys {
		if _, ok := a.vectors[advID]; !ok {
			onlyB += b.vectors[advID].Count()
		}
	}
	switch {
	case onlyA == 0 && onlyB == 0:
		return RelEqual
	case onlyB == 0 && both > 0:
		return RelSuperset
	case onlyA == 0 && both > 0:
		return RelSubset
	case onlyA == 0: // a empty, b non-empty
		return RelSubset
	case onlyB == 0: // b empty, a non-empty
		return RelSuperset
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
	// Accumulate in sorted-key order: float addition is not associative,
	// so summing in map order would change the result bit-for-bit between
	// runs and break exact plan comparison.
	var out Load
	for _, advID := range p.keys {
		st, ok := stats[advID]
		if !ok {
			continue
		}
		f := p.vectors[advID].Fraction()
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
	// Iterate the smaller vector map; intersection is symmetric and broker
	// aggregates routinely hold 40× more publishers than a single unit.
	if len(b.vectors) < len(a.vectors) {
		a, b = b, a
	}
	// Sorted-key order for the same reason as EstimateLoad: the float sum
	// must not depend on map iteration order.
	var out Load
	for _, advID := range a.keys {
		av := a.vectors[advID]
		bv, ok := b.vectors[advID]
		if !ok {
			continue
		}
		st, ok := stats[advID]
		if !ok {
			continue
		}
		w := av.Window()
		if bw := bv.Window(); bw > w {
			w = bw
		}
		if w == 0 {
			continue
		}
		f := float64(AndCount(av, bv)) / float64(w)
		out.Rate += st.Rate * f
		out.Bandwidth += st.Bandwidth * f
	}
	return out
}

// FingerprintKey returns a canonical string identifying the exact set of
// (publisher, bit) pairs in the profile. Two profiles have equal keys iff
// they sank exactly the same publications; the GIF optimization
// (Section IV-C.1) groups subscriptions by this key.
func (p *Profile) FingerprintKey() string {
	var key []byte
	for _, advID := range p.keys {
		v := p.vectors[advID]
		if v.count == 0 {
			continue
		}
		key = append(key, advID...)
		key = append(key, ':')
		// The window's set bits in ascending ID order, a word at a time.
		win := v.Window()
		for i, w := range v.words {
			if rem := win - i*wordBits; rem <= 0 {
				break
			} else if rem < wordBits {
				w &= maskLow(rem)
			}
			for ; w != 0; w &= w - 1 {
				key = strconv.AppendInt(key, int64(v.firstID+i*wordBits+bits.TrailingZeros64(w)), 10)
				key = append(key, ',')
			}
		}
		key = append(key, ';')
	}
	return string(key)
}
