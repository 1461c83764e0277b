package bitvector

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
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
// A profile may be bound to a PublisherTable (PublisherTable.Bind): each
// entry then also carries its publisher's rank in the table, and the
// pairwise walks between two profiles bound to one table compare ranks
// instead of advertisement IDs. Ranks are sorted-ID indices, so both keys
// order the entries alike and every walk meets them in the same order.
//
// Concurrency: a Profile is not synchronized. Any number of goroutines may
// call the read-only functions concurrently on the same profiles
// (Closeness, Relate, IntersectCount, DiffCount, XorProfileCount,
// EstimateLoad, IntersectLoad, Count, Empty, Vector, Pubs,
// FingerprintKey, Clone, Snapshot, PublisherTable.Bind) as long as no
// goroutine is mutating them; the mutators (Record, Sync, Or) require
// exclusive access.
// A bound copy holds copies of its source's vector headers that share its
// words, and caches its total: it reads as its source read at Bind while
// neither is written. Profiles are frozen while the allocation algorithms
// run, and a run binds copies, never the caller's profiles.
type Profile struct {
	capacity int
	// entries holds one vector per publisher in ascending advertisement ID,
	// the one order every walk visits them in: float accumulation in
	// EstimateLoad/IntersectLoad is order-sensitive, so load estimates are
	// bit-for-bit reproducible between runs only because the order is fixed.
	entries []entry
	// table is the table the entries' ranks index, nil for an unbound
	// profile, whose ranks mean nothing.
	table *PublisherTable
	// total is Count's answer for a bound profile.
	total int
}

// entry is one publisher's vector in a Profile, held by value so that a walk
// finds its window and words on the entry it reads, not one pointer further.
type entry struct {
	vec   Vector
	rank  int32 // the publisher's index in the profile's table, if bound
	advID string
}

// byRank reports whether a walk over a and b may compare ranks: both are
// bound to one table.
func byRank(a, b *PublisherTable) bool { return a != nil && a == b }

// cmpKey orders two publishers met by a walk over two profiles or two
// summaries, given as rank and advertisement ID: by rank when byRank held for
// the two, by ID otherwise. It is the key compare of every pairwise walk.
func cmpKey(rankA, rankB int32, idA, idB string, ranked bool) int {
	switch {
	case ranked:
		return int(rankA) - int(rankB)
	case idA == idB:
		return 0
	case idA < idB:
		return -1
	}
	return 1
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
	i := sort.Search(len(p.entries), func(i int) bool { return p.entries[i].advID >= advID })
	return i, i < len(p.entries) && p.entries[i].advID == advID
}

// Record marks that the publication (advID, seq) was sunk by this
// subscription, creating the per-publisher vector on first use. A bound
// profile comes out of it unbound.
func (p *Profile) Record(advID string, seq int) {
	p.table = nil
	i, ok := p.search(advID)
	if !ok {
		p.entries = slices.Insert(p.entries, i, entry{advID: advID, vec: *New(p.capacity)})
	}
	p.entries[i].vec.Set(seq)
}

// Sync advances every per-publisher window to the publisher's last sent
// message ID so that unmatched publications count against the window. A
// bound profile comes out of it unbound.
func (p *Profile) Sync(stats map[string]*PublisherStats) {
	p.table = nil
	for i := range p.entries {
		if st, ok := stats[p.entries[i].advID]; ok {
			p.entries[i].vec.Observe(st.LastSeq)
		}
	}
}

// Vector returns the vector for a publisher, or nil. The pointer is valid
// until the next Record or Or adds a publisher to p.
func (p *Profile) Vector(advID string) *Vector {
	if i, ok := p.search(advID); ok {
		return &p.entries[i].vec
	}
	return nil
}

// Capacity returns the capacity of the profile's vectors.
func (p *Profile) Capacity() int { return p.capacity }

// Pubs is a read-only view of a profile's vectors in its publisher order,
// which ascends by rank in a bound profile. It is valid until p is written.
type Pubs []entry

// Pubs returns the view of p's vectors.
func (p *Profile) Pubs() Pubs { return p.entries }

// Pub returns the i-th vector and its publisher's rank, which means
// something only in a bound profile.
func (s Pubs) Pub(i int) (rank int32, v *Vector) { return s[i].rank, &s[i].vec }

// Clone returns a deep copy, unbound: it owns its vectors, which its
// holder may write.
func (p *Profile) Clone() *Profile {
	cp := &Profile{capacity: p.capacity, entries: make([]entry, len(p.entries))}
	for i, e := range p.entries {
		cp.entries[i] = entry{advID: e.advID, vec: *e.vec.Clone()}
	}
	return cp
}

// Or merges another profile into p (the OR bit operation of Figure 1,
// used when clustering subscriptions and when aggregating a broker's hosted
// subscriptions into a pseudo-subscription in Phase 3). p's vectors are
// written, so p must own them: a bound copy, which shares its source's
// words, never takes an Or. p stays bound when o is bound to p's table; an
// empty p takes o's binding, so an OR of profiles bound to one table, started
// from NewProfile, is bound to it. Otherwise p comes out unbound.
func (p *Profile) Or(o *Profile) {
	if len(p.entries) == 0 {
		p.table = o.table
	}
	ranked := byRank(p.table, o.table)
	i := 0
	for k := range o.entries {
		oe := &o.entries[k]
		c := -1
		for i < len(p.entries) {
			if c = cmpKey(p.entries[i].rank, oe.rank, p.entries[i].advID, oe.advID, ranked); c >= 0 {
				break
			}
			i++
		}
		if c != 0 {
			p.entries = slices.Insert(p.entries, i, entry{advID: oe.advID, vec: *New(p.capacity), rank: oe.rank})
		}
		p.entries[i].vec.Or(&oe.vec)
		i++
	}
	if !ranked {
		p.table = nil
		return
	}
	p.total = 0
	for i := range p.entries {
		p.total += p.entries[i].vec.count
	}
}

// Count returns the total number of set bits across all publishers: a bound
// profile's cached total, or the sum of the per-vector popcounts, each an
// O(1) cached load, so O(publishers) regardless of capacity. An unbound
// profile keeps no total because callers legitimately mutate individual
// vectors in place via p.Vector(adv).Observe(...)/Set(...).
func (p *Profile) Count() int {
	if p.table != nil {
		return p.total
	}
	n := 0
	for i := range p.entries {
		n += p.entries[i].vec.count
	}
	return n
}

// Empty reports whether the profile sank no publications at all,
// early-exiting on the first publisher with any set bit.
func (p *Profile) Empty() bool {
	for i := range p.entries {
		if p.entries[i].vec.count != 0 {
			return false
		}
	}
	return true
}

// PublisherMask summarizes in one word the publishers p has entries for: bit
// FNV-1a(advertisement ID) mod 64 is set for each. Two profiles whose masks
// share no bit have no publisher in common, so their intersection is empty;
// a shared bit proves nothing, since two IDs may land on one bit. The mask
// depends on the IDs alone, so a bound copy and its source agree.
func (p *Profile) PublisherMask() uint64 {
	var m uint64
	for i := range p.entries {
		h := uint64(14695981039346656037) // FNV-1a 64-bit offset basis
		for _, c := range []byte(p.entries[i].advID) {
			h = (h ^ uint64(c)) * 1099511628211
		}
		m |= 1 << (h % 64)
	}
	return m
}

// IntersectCount returns |a ∩ b| summed across publishers: one AndCount per
// common publisher, met in a merge walk over the two sorted lists, keyed by
// rank when both profiles are bound to one table. It is the
// only pairwise profile walk that counts bits; a profile is a set of
// (publisher, message ID) pairs of cardinality Count(), so the union,
// difference and symmetric-difference cardinalities below, Closeness and
// Relate are all arithmetic on it.
func IntersectCount(a, b *Profile) int {
	ranked := byRank(a.table, b.table)
	n := 0
	i, j := 0, 0
	for i < len(a.entries) && j < len(b.entries) {
		ea, eb := &a.entries[i], &b.entries[j]
		switch c := cmpKey(ea.rank, eb.rank, ea.advID, eb.advID, ranked); {
		case c == 0:
			n += AndCount(&ea.vec, &eb.vec)
			i++
			j++
		case c < 0:
			i++
		default:
			j++
		}
	}
	return n
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
		out.Rate += float64(st.Rate * f)
		out.Bandwidth += float64(st.Bandwidth * f)
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
			f := float64(AndCount(&ea.vec, &eb.vec)) / float64(w)
			out.Rate += float64(st.Rate * f)
			out.Bandwidth += float64(st.Bandwidth * f)
		case ea.advID < eb.advID:
			i++
		default:
			j++
		}
	}
	return out
}

// FingerprintKey returns a canonical string identifying the exact set of
// (publisher, message ID) pairs in the profile. Two profiles have equal keys
// iff they sank exactly the same publications; the GIF optimization
// (Section IV-C.1) groups subscriptions by this key.
//
// The key is binary, one record per publisher with a set bit, in entry
// (advertisement ID) order: the advertisement ID prefixed with its uvarint
// length, the varint grid index of the first non-zero word, a uvarint word
// count and the words from the first non-zero one to the last, little-endian.
// Every field is self-delimiting, so a key parses back into exactly one list
// of records; and a record is canonical, because its first and last words are
// non-zero and the grid places every ID, so it names exactly one ID set.
// Equal keys therefore mean equal sets (DESIGN.md §7).
func (p *Profile) FingerprintKey() string {
	n := 0 // a bound on the key's length, so that the key is one allocation
	for i := range p.entries {
		e := &p.entries[i]
		if lo, hi, ok := e.vec.setWords(); ok {
			n += 3*binary.MaxVarintLen64 + len(e.advID) + 8*(hi-lo)
		}
	}
	var key strings.Builder
	key.Grow(n)
	var buf [binary.MaxVarintLen64]byte
	for i := range p.entries {
		e := &p.entries[i]
		lo, hi, ok := e.vec.setWords()
		if !ok {
			continue
		}
		key.Write(binary.AppendUvarint(buf[:0], uint64(len(e.advID))))
		key.WriteString(e.advID)
		key.Write(binary.AppendVarint(buf[:0], int64(e.vec.firstID>>6+lo)))
		key.Write(binary.AppendUvarint(buf[:0], uint64(hi-lo)))
		for _, w := range e.vec.words[lo:hi] {
			key.Write(binary.LittleEndian.AppendUint64(buf[:0], w))
		}
	}
	return key.String()
}

// setWords returns the span [lo, hi) of v's words from the first non-zero
// one to the last, and false when v holds no ID.
func (v *Vector) setWords() (lo, hi int, ok bool) {
	if v.count == 0 {
		return 0, 0, false
	}
	lo, hi = 0, len(v.words)
	for v.words[lo] == 0 {
		lo++
	}
	for v.words[hi-1] == 0 {
		hi--
	}
	return lo, hi, true
}
