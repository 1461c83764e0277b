package bitvector

import (
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
// naive reference the specialized kernels must match exactly. Get reads
// one bit at a time and shares no code with the word-wise walkers.
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
		// XorCount: differences in the overlap plus every set bit outside
		// the common window.
		if both {
			if x != y {
				xor++
			}
		} else if x || y {
			xor++
		}
		// AndNotCount(a,b): bits of a not covered by a set bit of b's
		// overlap.
		if x && !(both && y) {
			andnot++
		}
	}
	return and, or, xor, andnot
}

// FuzzKernelEquivalence drives random window offsets, capacities, and
// densities through the four specialized count kernels and the Or merge
// (into a filled and into an empty vector, once and twice), asserting
// bit-for-bit agreement with the naive per-bit reference. Both
// dispatch paths are exercised: word-aligned offsets (forced for half the
// inputs) take the fast walkers, odd offsets the realigning fallback.
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

		and, or, xor, andnot := refCounts(a, b)
		if got := AndCount(a, b); got != and {
			t.Errorf("AndCount = %d, reference = %d", got, and)
		}
		if got := OrCount(a, b); got != or {
			t.Errorf("OrCount = %d, reference = %d", got, or)
		}
		if got := XorCount(a, b); got != xor {
			t.Errorf("XorCount = %d, reference = %d", got, xor)
		}
		if got := AndNotCount(a, b); got != andnot {
			t.Errorf("AndNotCount = %d, reference = %d", got, andnot)
		}
		// Symmetric ops must be symmetric; AndNot reversed must also match
		// its reference.
		if AndCount(a, b) != AndCount(b, a) {
			t.Error("AndCount not symmetric")
		}
		if OrCount(a, b) != OrCount(b, a) {
			t.Error("OrCount not symmetric")
		}
		if XorCount(a, b) != XorCount(b, a) {
			t.Error("XorCount not symmetric")
		}
		_, _, _, andnotBA := refCounts(b, a)
		if got := AndNotCount(b, a); got != andnotBA {
			t.Errorf("AndNotCount(b,a) = %d, reference = %d", got, andnotBA)
		}

		// Or merge: the union restricted to the merged window, checked
		// per-bit, plus the cached-popcount invariant.
		union := make(map[int]bool)
		for id := a.FirstID(); id <= a.LastID(); id++ {
			if a.Get(id) {
				union[id] = true
			}
		}
		for id := b.FirstID(); id <= b.LastID(); id++ {
			if b.Get(id) {
				union[id] = true
			}
		}
		m := a.Clone()
		m.Or(b)
		want := 0
		for id := m.FirstID(); id <= m.LastID(); id++ {
			if m.Get(id) != union[id] {
				t.Errorf("Or merge bit %d = %v, reference = %v", id, m.Get(id), union[id])
			}
			if union[id] {
				want++
			}
		}
		if m.Count() != want {
			t.Errorf("Or merge cached count = %d, per-bit recount = %d", m.Count(), want)
		}

		// Or is idempotent, and into an empty vector it keeps the newest
		// bits its capacity holds — the source may hold a wider window.
		again := m.Clone()
		again.Or(b)
		if again.String() != m.String() || again.Count() != m.Count() {
			t.Errorf("second Or changed the merge: %v (count %d) to %v (count %d)", m, m.Count(), again, again.Count())
		}
		e := New(capA)
		e.Or(b)
		if e.LastID() != b.LastID() || e.Window() != min(b.Window(), capA) {
			t.Errorf("Or into empty: window [%d,%d] from source [%d,%d] at capacity %d",
				e.FirstID(), e.LastID(), b.FirstID(), b.LastID(), capA)
		}
		want = 0
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
