// Package bitvector implements the windowed bit vectors and
// subscription/publisher profiles at the heart of the paper's resource
// allocation framework (Section III-B), together with the four closeness
// metrics used by the CRAM clustering algorithm (Section IV-C) and the
// profile relationship detection needed by the poset (Section IV-C.2).
//
// A subscription profile holds one bit vector per publisher it received
// publications from. Bit i of the vector for publisher P is set iff the
// subscription sank P's publication with message ID FirstID+i. Vectors have
// bounded capacity (default 1,280 bits); when a publication beyond the
// window arrives the vector is shifted just enough to record it in the last
// bit, discarding the oldest history.
package bitvector

import (
	"fmt"
	"math/bits"
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
	// firstID is the message ID corresponding to bit 0.
	firstID int
	// lastID is the highest message ID recorded or slid past; the valid
	// window is [firstID, lastID]. lastID < firstID means "empty".
	lastID int
	// capacity is the maximum window width in bits.
	capacity int
	// count caches the popcount of words. It is maintained eagerly by
	// every mutator (Set, Observe, Or, shiftDown, snapshot restore) —
	// never lazily on read — so the concurrent read-only contract above
	// holds: Count and Fraction are O(1) loads with no hidden writes.
	count int
	// words holds the window's bits, bit 0 of words[0] being firstID. No
	// bit outside [firstID, lastID] is ever set: Set and Or write only
	// inside the window, shiftDown moves bits toward firstID, and
	// FromSnapshot rejects an image that breaks it. count is therefore the
	// number of IDs the vector holds, which AndCount's identities rest on.
	words []uint64
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
		words:    make([]uint64, (capacity+wordBits-1)/wordBits),
	}
}

// Capacity returns the maximum window width in bits.
func (v *Vector) Capacity() int { return v.capacity }

// FirstID returns the message ID of bit 0.
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
	cp := &Vector{firstID: v.firstID, lastID: v.lastID, capacity: v.capacity, count: v.count, words: make([]uint64, len(v.words))}
	copy(cp.words, v.words)
	return cp
}

// Reset empties v in place, keeping its capacity and word storage.
func (v *Vector) Reset() {
	clear(v.words)
	v.firstID, v.lastID, v.count = 0, -1, 0
}

// Set records that the publication with the given message ID was received.
// IDs below the window are dropped (too old); IDs beyond the window slide
// the window forward per Section III-B: shift just enough that the new ID
// lands on the last bit, updating FirstID by the number of bits shifted.
func (v *Vector) Set(id int) {
	if v.lastID < v.firstID {
		// Empty vector: anchor the window at this ID.
		v.firstID = id
		v.lastID = id
		v.setBit(0)
		return
	}
	if id < v.firstID {
		return // older than the retained window
	}
	if id > v.lastID {
		v.lastID = id
	}
	idx := id - v.firstID
	if idx >= v.capacity {
		shift := idx - v.capacity + 1
		v.shiftDown(shift)
		v.firstID += shift
		idx = v.capacity - 1
	}
	v.setBit(idx)
}

// Observe advances the window to cover the given message ID without setting
// its bit: the subscription did NOT sink this publication, but the profile
// must still account for it in the window so that set-bit fractions estimate
// rates correctly. Publisher profiles expose the last sent ID exactly for
// this synchronization (Section III-B).
func (v *Vector) Observe(id int) {
	if v.lastID < v.firstID {
		v.firstID = id
		v.lastID = id
		return
	}
	if id <= v.lastID {
		return
	}
	v.lastID = id
	idx := id - v.firstID
	if idx >= v.capacity {
		shift := idx - v.capacity + 1
		v.shiftDown(shift)
		v.firstID += shift
	}
}

// Get reports whether the bit for the given message ID is set.
func (v *Vector) Get(id int) bool {
	if id < v.firstID || id > v.lastID {
		return false
	}
	idx := id - v.firstID
	return v.words[idx/wordBits]&(1<<(uint(idx)%wordBits)) != 0
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

// setBit sets the bit at a window-relative index, keeping the cached
// popcount exact.
func (v *Vector) setBit(idx int) {
	w := &v.words[idx/wordBits]
	mask := uint64(1) << (uint(idx) % wordBits)
	if *w&mask == 0 {
		*w |= mask
		v.count++
	}
}

// recount recomputes the cached popcount from the words. Mutators that
// rewrite whole words (shiftDown, Or) call it once at the end; it is never
// called from a read-only operation.
func (v *Vector) recount() {
	n := 0
	for _, w := range v.words {
		n += bits.OnesCount64(w)
	}
	v.count = n
}

// shiftDown discards the n oldest bits, moving every remaining bit toward
// index 0.
func (v *Vector) shiftDown(n int) {
	if n <= 0 {
		return
	}
	if n >= v.capacity {
		for i := range v.words {
			v.words[i] = 0
		}
		v.count = 0
		return
	}
	wordShift := n / wordBits
	bitShift := uint(n % wordBits)
	nw := len(v.words)
	for i := 0; i < nw; i++ {
		var w uint64
		if i+wordShift < nw {
			w = v.words[i+wordShift] >> bitShift
			if bitShift > 0 && i+wordShift+1 < nw {
				w |= v.words[i+wordShift+1] << (wordBits - bitShift)
			}
		}
		v.words[i] = w
	}
	// Clear any bits beyond capacity that the shift may have exposed.
	v.maskTail()
	v.recount()
}

// maskTail zeroes bits at positions >= capacity.
func (v *Vector) maskTail() {
	rem := v.capacity % wordBits
	if rem != 0 {
		v.words[len(v.words)-1] &= (1 << uint(rem)) - 1
	}
}

// Or merges another vector of the same publisher into v (used when
// clustering subscriptions, Figure 1). The windows are aligned on message
// IDs; v's window is extended to cover o's. The fold is word-wise: when the
// two windows share a word-aligned offset — the common case after Sync,
// where every vector is anchored on the publisher's LastSeq — each step is
// a single OR of whole words; odd offsets fall back to the realigning
// extract path. Or is idempotent: a second Or of the same vector changes
// nothing (allocation's first-fit kernel skips it on that ground).
func (v *Vector) Or(o *Vector) {
	if o.Window() == 0 {
		return
	}
	if v.Window() == 0 {
		v.firstID = o.firstID
		v.lastID = o.lastID
		if o.capacity <= v.capacity {
			copy(v.words, o.words)
			v.maskTail()
			v.recount()
			return
		}
		// o may hold a wider window than v can: anchor v on the newest
		// capacity IDs and fold them in below like any other overlap.
		if over := o.Window() - v.capacity; over > 0 {
			v.firstID += over
		}
		clear(v.words)
	} else if o.lastID > v.lastID {
		v.Observe(o.lastID)
	}
	// Fold o's set bits into v, dropping bits older than v's window. After
	// the Observe above v's window covers o's tail, so the foldable range is
	// the window overlap.
	lo, hi, ok := overlap(v, o)
	if !ok {
		return
	}
	vi := lo - v.firstID
	oi := lo - o.firstID
	n := hi - lo + 1
	if (vi-oi)%wordBits == 0 {
		// Aligned: both sides share the in-word offset.
		i, j := vi/wordBits, oi/wordBits
		off := vi % wordBits
		if off != 0 {
			take := wordBits - off
			if take > n {
				take = n
			}
			v.words[i] |= o.words[j] & (maskLow(take) << uint(off))
			n -= take
			i++
			j++
		}
		for ; n >= wordBits; n -= wordBits {
			v.words[i] |= o.words[j]
			i++
			j++
		}
		if n > 0 {
			v.words[i] |= o.words[j] & maskLow(n)
		}
	} else {
		for n > 0 {
			off := vi % wordBits
			take := wordBits - off
			if take > n {
				take = n
			}
			v.words[vi/wordBits] |= extractBits(o.words, oi, take) << uint(off)
			vi += take
			oi += take
			n -= take
		}
	}
	v.recount()
}

// overlap computes the aligned common ID range of two vectors; ok=false
// when the windows do not overlap.
func overlap(a, b *Vector) (lo, hi int, ok bool) {
	lo = a.firstID
	if b.firstID > lo {
		lo = b.firstID
	}
	hi = a.lastID
	if b.lastID < hi {
		hi = b.lastID
	}
	return lo, hi, lo <= hi
}

// AndCount returns |a ∩ b|: the IDs set in both vectors, counted over the
// overlap of the two windows. It is the only pairwise count kernel. A vector
// holds no set bit outside its window (the invariant every mutator and
// FromSnapshot keep), so it is a set of IDs whose cardinality is Count(),
// and every other pair quantity is arithmetic on this one:
//
//	|a ∪ b| = |a| + |b| − |a ∩ b|
//	|a ⊕ b| = |a| + |b| − 2·|a ∩ b|
//	|a \ b| = |a| − |a ∩ b|
//
//greenvet:hotpath closeness kernel: evaluated per candidate pair in CRAM's partner scans (E7/E8: millions of calls per run)
func AndCount(a, b *Vector) int {
	lo, hi, ok := overlap(a, b)
	if !ok {
		return 0
	}
	ai, bi := lo-a.firstID, lo-b.firstID
	if (ai-bi)%wordBits == 0 {
		return andCountWords(a.words, b.words, ai, bi, hi-lo+1)
	}
	return andCountOffset(a.words, b.words, ai, bi, hi-lo+1)
}

// andCountWords counts bits of aw&bw over the n-bit overlap starting at bit
// offsets ai and bi that share the same in-word offset (ai ≡ bi mod 64): a
// head step up to the first word boundary, a straight range over whole
// words, and a masked tail.
//
//greenvet:hotpath aligned inner word loop of AndCount
func andCountWords(aw, bw []uint64, ai, bi, n int) int {
	i, j := ai/wordBits, bi/wordBits
	cnt := 0
	if off := ai % wordBits; off != 0 {
		take := wordBits - off
		if take > n {
			take = n
		}
		cnt += bits.OnesCount64((aw[i] & bw[j]) >> uint(off) & maskLow(take))
		n -= take
		i++
		j++
	}
	full := n / wordBits
	as, bs := aw[i:i+full], bw[j:j+full]
	for k, x := range as {
		cnt += bits.OnesCount64(x & bs[k])
	}
	if n %= wordBits; n > 0 {
		cnt += bits.OnesCount64(aw[i+full] & bw[j+full] & maskLow(n))
	}
	return cnt
}

// andCountOffset counts bits of aw&bw over the n-bit overlap starting at
// bit offsets ai and bi whose in-word offsets differ (ai ≢ bi mod 64). It
// walks a's word grid like the aligned loop — head, whole words, tail — and
// reads b through a funnel shift: once a is on a word boundary b is
// s = bi mod 64 bits past one, s ≠ 0 for the rest of the walk, so each word
// of a meets the top 64−s bits of one word of b and the low s bits of the
// next, one load of b per word of a. A whole word of overlap lies inside
// b's window, so that next word exists; the head and the tail may end inside
// b's last word and go through extractBits, which guards the read and masks
// the step to its width.
//
//greenvet:hotpath offset inner word loop of AndCount: every unit-vs-aggregate overlap whose windows start off each other's word grid
func andCountOffset(aw, bw []uint64, ai, bi, n int) int {
	i := ai / wordBits
	cnt := 0
	if off := ai % wordBits; off != 0 {
		take := wordBits - off
		if take > n {
			take = n
		}
		cnt += bits.OnesCount64(aw[i] >> uint(off) & extractBits(bw, bi, take))
		n -= take
		bi += take
		i++
	}
	full := n / wordBits
	if full > 0 {
		j, s := bi/wordBits, uint(bi%wordBits)
		as, bs := aw[i:i+full], bw[j:j+full+1]
		lo := bs[0] >> s
		for k, x := range as {
			hi := bs[k+1]
			cnt += bits.OnesCount64(x & (lo | hi<<(wordBits-s)))
			lo = hi >> s
		}
	}
	if n %= wordBits; n > 0 {
		cnt += bits.OnesCount64(aw[i+full] & extractBits(bw, bi+full*wordBits, n))
	}
	return cnt
}

// extractBits reads `count` (<=64) bits starting at bit offset off.
func extractBits(words []uint64, off, count int) uint64 {
	w := words[off/wordBits] >> (uint(off) % wordBits)
	used := wordBits - off%wordBits
	if used < count && off/wordBits+1 < len(words) {
		w |= words[off/wordBits+1] << uint(used)
	}
	return w & maskLow(count)
}

// maskLow returns a mask with the low n bits set (n in [0,64]).
func maskLow(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(n)) - 1
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
