package bitvector

import (
	"math/bits"
	"math/rand"
	"testing"
)

// buildFuzzVector fills a vector with pseudo-random bits: a window of the
// given width starting at start, each bit set with probability density/256.
func buildFuzzVector(capacity, start, width int, density byte, seed int64) *Vector {
	v := New(capacity)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < width; i++ {
		if byte(rng.Intn(256)) < density {
			v.Set(start + i)
		}
	}
	v.Observe(start + width - 1)
	return v
}

// refCounts computes the four pair counts bit-by-bit through Get — the
// naive reference AndCount and the identities built on it must match
// exactly. Get reads one bit at a time and shares no code with the
// word-wise walkers, and or / xor / and-not are counted from the bits, not
// derived from and.
func refCounts(a, b *Vector) (and, or, xor, andnot int) {
	lo, hi := a.FirstID(), a.LastID()
	if b.FirstID() < lo {
		lo = b.FirstID()
	}
	if b.LastID() > hi {
		hi = b.LastID()
	}
	inA := func(id int) bool { return id >= a.FirstID() && id <= a.LastID() }
	inB := func(id int) bool { return id >= b.FirstID() && id <= b.LastID() }
	for id := lo; id <= hi; id++ {
		x, y := a.Get(id), b.Get(id)
		both := inA(id) && inB(id)
		if both && x && y {
			and++
		}
		if x || y {
			or++
		}
		// xor: differences in the overlap plus every set bit outside the
		// common window.
		if both {
			if x != y {
				xor++
			}
		} else if x || y {
			xor++
		}
		// and-not: bits of a not covered by a set bit of b's overlap.
		if x && !(both && y) {
			andnot++
		}
	}
	return and, or, xor, andnot
}

// orCount, xorCount and andNotCount are the three identities every derived
// pair quantity in profile.go rests on, stated per vector so the tests can
// hold each to a per-bit oracle: a vector is the set of IDs set inside its
// window, Count() its cardinality and AndCount the intersection's.
func orCount(a, b *Vector) int     { return a.Count() + b.Count() - AndCount(a, b) }
func xorCount(a, b *Vector) int    { return a.Count() + b.Count() - 2*AndCount(a, b) }
func andNotCount(a, b *Vector) int { return a.Count() - AndCount(a, b) }

// genericAndCount is the offset path AndCount took before andCountOffset,
// stepping unchanged: it goes to the nearer of both sides' word boundaries
// and realigns both with extractBits. Kept here as BenchmarkKernelVsGeneric's
// baseline and as a second oracle beside the per-bit reference — it shares
// extractBits with the walker, nothing else.
func genericAndCount(a, b *Vector) int {
	lo, hi, ok := overlap(a, b)
	if !ok {
		return 0
	}
	n := 0
	// Walk the overlap word-by-word in a's coordinates, realigning b.
	for id := lo; id <= hi; {
		ai := id - a.firstID
		bi := id - b.firstID
		// Bits available in this step: up to the end of a's or b's word.
		step := wordBits - ai%wordBits
		if s := wordBits - bi%wordBits; s < step {
			step = s
		}
		if rem := hi - id + 1; rem < step {
			step = rem
		}
		aw := extractBits(a.words, ai, step)
		bw := extractBits(b.words, bi, step)
		n += bits.OnesCount64(aw & bw)
		id += step
	}
	return n
}

// refWordAndCount counts aw&bw bit by bit over the n-bit ranges of two raw
// word slices starting at bit offsets ai and bi.
func refWordAndCount(aw, bw []uint64, ai, bi, n int) (c int) {
	for k := 0; k < n; k++ {
		x := aw[(ai+k)/wordBits]>>(uint(ai+k)%wordBits)&1 != 0
		y := bw[(bi+k)/wordBits]>>(uint(bi+k)%wordBits)&1 != 0
		if x && y {
			c++
		}
	}
	return c
}

// checkWordKernels holds the word kernel AndCount would pick for the
// offsets — the aligned loop when ai ≡ bi mod 64, the offset walker
// otherwise — to the per-bit reference over one raw range. Both slices are
// cut to the last word the range touches, so a kernel that reads one word
// too far panics instead of passing.
func checkWordKernels(t *testing.T, aw, bw []uint64, ai, bi, n int) {
	t.Helper()
	aw, bw = aw[:(ai+n+wordBits-1)/wordBits], bw[:(bi+n+wordBits-1)/wordBits]
	kernel := andCountOffset
	if (ai-bi)%wordBits == 0 {
		kernel = andCountWords
	}
	if got, want := kernel(aw, bw, ai, bi, n), refWordAndCount(aw, bw, ai, bi, n); got != want {
		t.Fatalf("offsets (%d,%d) length %d: word kernel = %d, per-bit reference = %d", ai, bi, n, got, want)
	}
}

// checkCountKernels holds AndCount to the per-bit reference and to the
// retained generic path, and the three identities built on it to the per-bit
// reference's or / xor / and-not, in both argument orders.
func checkCountKernels(t *testing.T, a, b *Vector) {
	t.Helper()
	for _, p := range [2][2]*Vector{{a, b}, {b, a}} {
		x, y := p[0], p[1]
		got := [4]int{AndCount(x, y), orCount(x, y), xorCount(x, y), andNotCount(x, y)}
		and, or, xor, andnot := refCounts(x, y)
		if want := [4]int{and, or, xor, andnot}; got != want {
			t.Errorf("%v vs %v: [and or xor andnot] = %v, per-bit reference = %v", x, y, got, want)
		}
		if want := genericAndCount(x, y); got[0] != want {
			t.Errorf("%v vs %v: AndCount = %d, generic path = %d", x, y, got[0], want)
		}
	}
}

// checkOrMerge holds a.Or(b) to the per-bit union restricted to the merged
// window, with the cached popcount, and checks that a second Or changes
// nothing. It returns the merge.
func checkOrMerge(t *testing.T, a, b *Vector) *Vector {
	t.Helper()
	m := a.Clone()
	m.Or(b)
	want := 0
	for id := m.FirstID(); id <= m.LastID(); id++ {
		union := a.Get(id) || b.Get(id)
		if m.Get(id) != union {
			t.Errorf("Or merge of %v into %v: bit %d = %v, reference = %v", b, a, id, m.Get(id), union)
		}
		if union {
			want++
		}
	}
	if m.Count() != want {
		t.Errorf("Or merge cached count = %d, per-bit recount = %d", m.Count(), want)
	}
	again := m.Clone()
	again.Or(b)
	if again.String() != m.String() || again.Count() != m.Count() {
		t.Errorf("second Or changed the merge: %v (count %d) to %v (count %d)", m, m.Count(), again, again.Count())
	}
	return m
}

// FuzzKernelEquivalence drives random window offsets, capacities, and
// densities through AndCount, the or / xor / and-not identities on it and
// the Or merge (into a filled and into an empty vector, once and twice),
// asserting bit-for-bit agreement with the naive per-bit reference and, for
// AndCount, with the retained generic path. Both dispatch paths are
// exercised — word-aligned offsets (forced for half the inputs) take the
// aligned loop, odd offsets the offset walker — through the public function
// and again on a raw word range at arbitrary offsets on both sides.
func FuzzKernelEquivalence(f *testing.F) {
	f.Add(int64(1), int64(2), uint16(0), uint16(0), uint16(100), uint16(100), uint8(128), uint8(128), uint8(0))
	f.Add(int64(3), int64(4), uint16(10), uint16(74), uint16(200), uint16(150), uint8(200), uint8(30), uint8(1))
	f.Add(int64(5), int64(6), uint16(500), uint16(513), uint16(64), uint16(1280), uint8(255), uint8(1), uint8(2))
	f.Add(int64(7), int64(8), uint16(0), uint16(2000), uint16(30), uint16(30), uint8(90), uint8(90), uint8(3))
	f.Fuzz(func(t *testing.T, seedA, seedB int64, startA, startB, widthA, widthB uint16, densA, densB, mode uint8) {
		caps := []int{64, 100, 128, 190, 256, DefaultCapacity}
		capA := caps[int(mode)%len(caps)]
		capB := caps[int(mode>>2)%len(caps)]
		sa, sb := int(startA), int(startB)
		if mode&1 == 0 {
			// Force a word-aligned offset so the fast path is hit.
			sb = sa + 64*(int(startB)%5)
		}
		wa := 1 + int(widthA)%capA
		wb := 1 + int(widthB)%capB
		a := buildFuzzVector(capA, sa, wa, densA, seedA)
		b := buildFuzzVector(capB, sb, wb, densB, seedB)

		checkCountKernels(t, a, b)

		// The word kernels over a raw range of the same words, at in-word
		// offsets the public functions never produce (an overlap starts on
		// the first bit of one side).
		ai, bi := int(startA)%a.Window(), int(startB)%b.Window()
		checkWordKernels(t, a.words, b.words, ai, bi, 1+int(widthB)%min(a.Window()-ai, b.Window()-bi))

		checkOrMerge(t, a, b)
		// Into an empty vector Or keeps the newest bits its capacity holds —
		// the source may hold a wider window.
		e := New(capA)
		e.Or(b)
		if e.LastID() != b.LastID() || e.Window() != min(b.Window(), capA) {
			t.Errorf("Or into empty: window [%d,%d] from source [%d,%d] at capacity %d",
				e.FirstID(), e.LastID(), b.FirstID(), b.LastID(), capA)
		}
		want := 0
		for id := e.FirstID(); id <= e.LastID(); id++ {
			if e.Get(id) != b.Get(id) {
				t.Errorf("Or into empty: bit %d = %v, source has %v", id, e.Get(id), b.Get(id))
			}
			if b.Get(id) {
				want++
			}
		}
		if e.Count() != want {
			t.Errorf("Or into empty: cached count = %d, per-bit recount = %d", e.Count(), want)
		}
	})
}
