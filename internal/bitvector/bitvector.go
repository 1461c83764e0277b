// Package bitvector implements the windowed bit vectors and
// subscription/publisher profiles at the heart of the paper's resource
// allocation framework (Section III-B), together with the four closeness
// metrics used by the CRAM clustering algorithm (Section IV-C) and the
// profile relationship detection needed by the poset (Section IV-C.2).
//
// A subscription profile holds one bit vector per publisher it received
// publications from. The bit for message ID i of publisher P is set iff the
// subscription sank P's publication i. Vectors have bounded capacity
// (default 1,280 bits); when a publication beyond the window arrives the
// window slides just enough to end on it, discarding the oldest history.
//
// Every vector keeps its bits on one absolute word grid — message ID i is
// bit i mod 64 of grid word i div 64, wherever the window starts — so any
// two vectors of a publisher line up word for word and every pair operation
// is one loop over the grid words the two windows share.
package bitvector

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

// DefaultCapacity is the paper's default bit vector size of 1,280 bits. A
// larger size improves load-estimation accuracy but lengthens profiling.
const DefaultCapacity = 1280

const wordBits = 64

// Vector is a bounded, windowed bit vector over a publisher's message ID
// space. The zero Vector is not usable; construct with New.
//
// Concurrency: a Vector is not synchronized. The read-only operations
// (Get, Count, Fraction, Window, AndCount, Clone, String, Snapshot) are safe
// to call concurrently from multiple goroutines as long as no goroutine is
// mutating the vector; Set, Observe, and Or require exclusive access.
type Vector struct {
	// firstID is the oldest message ID of the window.
	firstID int
	// lastID is the highest message ID recorded or slid past; the valid
	// window is [firstID, lastID]. lastID < firstID means "empty".
	lastID int
	// capacity is the maximum window width in bits.
	capacity int
	// count caches the popcount of words. It is maintained eagerly by
	// every mutator (Set, Observe, Or, snapshot restore) — never lazily on
	// read — so the concurrent read-only contract above holds: Count and
	// Fraction are O(1) loads with no hidden writes.
	count int
	// words holds the window's bits on the absolute grid: words[k] covers
	// the 64 IDs of grid word firstID>>6 + k, ID i at bit i&63 (the shift is
	// arithmetic, so negative IDs floor onto the grid too). gridWords sizes
	// it so that a full window fits wherever it starts in words[0]. No bit
	// outside [firstID, lastID] is ever set: Set and Or write only inside the
	// window, Observe and Or trim what a slide or a merge leaves below
	// firstID, and FromSnapshot rejects an image that breaks it. count is
	// therefore the number of IDs the vector holds, and AndCount can meet two
	// vectors' words without masking either window.
	words []uint64
}

// gridWords returns the number of grid words a window of capacity bits can
// touch: (capacity+126)/64, one more than the bits alone need when the
// window starts late enough in its first word. Written so that no capacity
// overflows.
func gridWords(capacity int) int {
	return capacity/wordBits + (capacity%wordBits+2*wordBits-2)/wordBits
}

// New returns an empty vector with the given capacity in bits. Capacity
// must be positive; DefaultCapacity is used when cap <= 0.
func New(capacity int) *Vector {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Vector{
		firstID:  0,
		lastID:   -1,
		capacity: capacity,
		words:    make([]uint64, gridWords(capacity)),
	}
}

// Capacity returns the maximum window width in bits.
func (v *Vector) Capacity() int { return v.capacity }

// FirstID returns the oldest message ID of the window.
func (v *Vector) FirstID() int { return v.firstID }

// LastID returns the highest message ID observed (set or slid past).
// For an empty vector LastID() < FirstID().
func (v *Vector) LastID() int { return v.lastID }

// Window returns the number of valid bits, i.e. the number of message IDs
// the vector currently has an opinion about.
func (v *Vector) Window() int {
	w := v.lastID - v.firstID + 1
	if w < 0 {
		return 0
	}
	return w
}

// Clone returns a deep copy.
func (v *Vector) Clone() *Vector {
	cp := *v
	cp.words = slices.Clone(v.words)
	return &cp
}

// Reset empties v in place, keeping its capacity and word storage.
func (v *Vector) Reset() {
	clear(v.words)
	v.firstID, v.lastID, v.count = 0, -1, 0
}

// Set records that the publication with the given message ID was received.
// IDs below the window are dropped (too old); IDs beyond the window slide
// the window forward per Section III-B: just enough that the new ID is the
// window's last, FirstID moving up by the number of IDs discarded.
func (v *Vector) Set(id int) {
	if id < v.firstID && v.firstID <= v.lastID {
		return // older than the retained window
	}
	v.Observe(id)
	// Both grid indices lie in [-2^57, 2^57), so their difference cannot
	// overflow however far apart the two IDs are.
	w := &v.words[id>>6-v.firstID>>6]
	if bit := uint64(1) << uint(id&63); *w&bit == 0 {
		*w |= bit
		v.count++
	}
}

// Observe advances the window to cover the given message ID without setting
// its bit: the subscription did NOT sink this publication, but the profile
// must still account for it in the window so that set-bit fractions estimate
// rates correctly. Publisher profiles expose the last sent ID exactly for
// this synchronization (Section III-B).
func (v *Vector) Observe(id int) {
	if v.lastID < v.firstID {
		// Empty, so every word is zero: anchor the window at this ID.
		v.firstID, v.lastID = id, id
		return
	}
	if id <= v.lastID {
		return
	}
	v.lastID = id
	// id > firstID here, so the unsigned difference is the exact distance
	// even where id − firstID does not fit an int: message IDs come off the
	// wire unvalidated.
	if uint(id)-uint(v.firstID) < uint(v.capacity) {
		return
	}
	// Slide: the window becomes the capacity IDs ending on id. Grid words
	// wholly older than it go in a word copy; the older IDs that share its
	// first word go in trimHead.
	first := id - v.capacity + 1
	if d := min(first>>6-v.firstID>>6, len(v.words)); d > 0 {
		for _, w := range v.words[:d] {
			v.count -= bits.OnesCount64(w)
		}
		clear(v.words[copy(v.words, v.words[d:]):])
	}
	v.firstID = first
	v.trimHead()
}

// trimHead clears the bits of words[0] below firstID — what a slide or a
// merge leaves there of IDs older than the window — keeping count exact. It
// is the one mask the layout needs: every other word of the window holds
// window IDs only.
func (v *Vector) trimHead() {
	stale := v.words[0] &^ (^uint64(0) << uint(v.firstID&63))
	v.words[0] ^= stale
	v.count -= bits.OnesCount64(stale)
}

// Get reports whether the bit for the given message ID is set.
func (v *Vector) Get(id int) bool {
	if id < v.firstID || id > v.lastID {
		return false
	}
	return v.words[id>>6-v.firstID>>6]>>uint(id&63)&1 != 0
}

// Count returns the number of set bits. O(1): the popcount is maintained
// incrementally by the mutators.
func (v *Vector) Count() int { return v.count }

// Fraction returns set bits divided by the valid window, the per-publisher
// traffic fraction this profile sinks. An empty vector yields 0.
func (v *Vector) Fraction() float64 {
	w := v.Window()
	if w == 0 {
		return 0
	}
	return float64(v.Count()) / float64(w)
}

// shared returns the grid words two windows have in common as equal-length
// slices of each side's storage, empty when no grid word holds IDs of both.
// A window fits its capacity, so every grid word from its first ID's to its
// last ID's is in its storage.
func shared(a, b *Vector) (aw, bw []uint64) {
	af, bf := a.firstID>>6, b.firstID>>6
	lo, hi := max(af, bf), min(a.lastID>>6, b.lastID>>6)
	if lo > hi {
		return nil, nil
	}
	return a.words[lo-af : hi-af+1], b.words[lo-bf : hi-bf+1]
}

// Or merges another vector of the same publisher into v (used when
// clustering subscriptions, Figure 1). v's window is extended to cover o's
// newest ID — anchored on o's window when v is empty, slid when o reaches
// past what v's capacity holds — and o's bits older than v's window are
// dropped. The fold is one OR per shared grid word; the only IDs of o it can
// carry outside v's window are older ones in v's first word, which trimHead
// removes. Or is idempotent: a second Or of the same vector changes nothing
// (allocation's first-fit kernel skips it on that ground).
func (v *Vector) Or(o *Vector) {
	if o.lastID < o.firstID {
		return
	}
	v.Observe(o.firstID) // anchors an empty v; otherwise subsumed by the next
	v.Observe(o.lastID)
	vw, ow := shared(v, o)
	vw = vw[:len(ow)]
	for k, x := range ow {
		v.count += bits.OnesCount64(x &^ vw[k])
		vw[k] |= x
	}
	v.trimHead()
}

// AndCount returns |a ∩ b|: the IDs set in both vectors. It is the only
// pairwise count kernel. A vector holds no set bit outside its window (the
// invariant every mutator and FromSnapshot keep), so ANDing the grid words
// the two windows share needs no mask at either end — an ID outside either
// window is a zero bit on that side — and a vector is a set of IDs whose
// cardinality is Count(), which makes every other pair quantity arithmetic
// on this one:
//
//	|a ∪ b| = |a| + |b| − |a ∩ b|
//	|a ⊕ b| = |a| + |b| − 2·|a ∩ b|
//	|a \ b| = |a| − |a ∩ b|
//
//greenvet:hotpath closeness kernel: evaluated per candidate pair in CRAM's partner scans and per first-fit walk (E7/E8, E13: millions of calls per run)
func AndCount(a, b *Vector) int {
	aw, bw := shared(a, b)
	bw = bw[:len(aw)]
	cnt := 0
	for k, x := range aw {
		cnt += bits.OnesCount64(x & bw[k])
	}
	return cnt
}

// String renders the window as a bit string (for tests and debugging);
// windows wider than 128 bits are elided.
func (v *Vector) String() string {
	w := v.Window()
	var b strings.Builder
	fmt.Fprintf(&b, "BV[first=%d,last=%d,cap=%d:", v.firstID, v.lastID, v.capacity)
	n := w
	if n > 128 {
		n = 128
	}
	for i := 0; i < n; i++ {
		if v.Get(v.firstID + i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	if w > n {
		b.WriteString("...")
	}
	b.WriteByte(']')
	return b.String()
}
