package bitvector

import (
	"math/bits"
	"math/rand"
	"testing"
)

// buildFuzzVector fills a vector with pseudo-random bits: a window of the
// given width starting at start, each bit set with probability density/256.
// The model (bitvector_test.go) is driven through the same calls and is the
// oracle that shares no index arithmetic with the vector.
func buildFuzzVector(capacity, start, width int, density byte, seed int64) (*Vector, *model) {
	v, m := New(capacity), newModel(capacity)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < width; i++ {
		if byte(rng.Intn(256)) < density {
			v.Set(start + i)
			m.Set(start + i)
		}
	}
	v.Observe(start + width - 1)
	m.Observe(start + width - 1)
	return v, m
}

// checkStored reads the stored words directly and fails on any bit the
// window invariant forbids — below firstID, above lastID, or in a word past
// the window — on a word count other than the capacity's grid size, and on a
// cached count that is not the words' popcount. The ID of a stored bit is
// rebuilt here from the floor of firstID by modulo arithmetic, not by the
// shifts Get and the kernels use.
func checkStored(t *testing.T, v *Vector) {
	t.Helper()
	if want := (v.capacity + 126) / 64; len(v.words) != want {
		t.Fatalf("%v: %d words, capacity %d takes %d", v, len(v.words), v.capacity, want)
	}
	if w := v.Window(); w < 0 || w > v.capacity {
		t.Fatalf("%v: window %d outside [0, capacity]", v, w)
	}
	base := v.firstID - ((v.firstID%64)+64)%64
	n := 0
	for k, w := range v.words {
		n += bits.OnesCount64(w)
		for b := 0; b < 64; b++ {
			if id := base + 64*k + b; w>>uint(b)&1 != 0 && (id < v.firstID || id > v.lastID) {
				t.Fatalf("%v: word %d bit %d stores ID %d, outside the window", v, k, b, id)
			}
		}
	}
	if v.count != n {
		t.Fatalf("%v: cached count %d, stored words hold %d bits", v, v.count, n)
	}
}

// checkModel holds a vector to its model: the same window, the same count,
// the same IDs, and nothing stored outside the window.
func checkModel(t *testing.T, v *Vector, m *model) {
	t.Helper()
	checkStored(t, v)
	if m.last < m.first {
		if v.Window() != 0 || v.Count() != 0 {
			t.Fatalf("%v: model is empty", v)
		}
		return
	}
	if v.firstID != m.first || v.lastID != m.last || v.Count() != m.Count() {
		t.Fatalf("%v (count %d): model window [%d,%d], count %d", v, v.Count(), m.first, m.last, m.Count())
	}
	for id := m.first; id <= m.last; id++ {
		if v.Get(id) != m.set[id] {
			t.Fatalf("%v: bit %d = %v, model has %v", v, id, v.Get(id), m.set[id])
		}
	}
}

// refCounts computes the four pair counts bit-by-bit through Get — the
// naive reference AndCount and the identities built on it must match
// exactly. Get reads one bit at a time and or / xor / and-not are counted
// from the bits, not derived from and.
func refCounts(a, b *Vector) (and, or, xor, andnot int) {
	lo, hi := a.firstID, a.lastID
	if b.firstID < lo {
		lo = b.firstID
	}
	if b.lastID > hi {
		hi = b.lastID
	}
	inA := func(id int) bool { return id >= a.firstID && id <= a.lastID }
	inB := func(id int) bool { return id >= b.firstID && id <= b.lastID }
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

// checkCountKernels holds AndCount and the three identities built on it, in
// both argument orders, to two oracles: the per-bit reference through Get,
// and the models' ID sets, which know nothing of words.
func checkCountKernels(t *testing.T, a, b *Vector, ma, mb *model) {
	t.Helper()
	checkModel(t, a, ma)
	checkModel(t, b, mb)
	for _, p := range [2]struct {
		x, y   *Vector
		mx, my *model
	}{{a, b, ma, mb}, {b, a, mb, ma}} {
		got := [4]int{AndCount(p.x, p.y), orCount(p.x, p.y), xorCount(p.x, p.y), andNotCount(p.x, p.y)}
		and, or, xor, andnot := refCounts(p.x, p.y)
		if want := [4]int{and, or, xor, andnot}; got != want {
			t.Errorf("%v vs %v: [and or xor andnot] = %v, per-bit reference = %v", p.x, p.y, got, want)
		}
		both := 0
		for id := range p.mx.set {
			if p.my.set[id] {
				both++
			}
		}
		nx, ny := len(p.mx.set), len(p.my.set)
		if want := [4]int{both, nx + ny - both, nx + ny - 2*both, nx - both}; got != want {
			t.Errorf("%v vs %v: [and or xor andnot] = %v, ID-set model = %v", p.x, p.y, got, want)
		}
	}
}

// checkOrMerge holds a.Or(b) to the per-bit union restricted to the merged
// window and to the model's merge, with the cached popcount and the stored
// words checked, and checks that a second Or changes nothing. It returns the
// merge.
func checkOrMerge(t *testing.T, a, b *Vector, ma, mb *model) *Vector {
	t.Helper()
	m, mm := a.Clone(), ma.Clone()
	m.Or(b)
	mm.Or(mb)
	checkModel(t, m, mm)
	want := 0
	for id := m.firstID; id <= m.lastID; id++ {
		union := a.Get(id) || b.Get(id)
		if m.Get(id) != union {
			t.Errorf("Or merge of %v into %v: bit %d = %v, reference = %v", b, a, id, m.Get(id), union)
		}
		if union {
			want++
		}
	}
	if m.Count() != want {
		t.Errorf("Or merge cached count = %d, per-bit count = %d", m.Count(), want)
	}
	again := m.Clone()
	again.Or(b)
	checkModel(t, again, mm)
	if again.String() != m.String() || again.Count() != m.Count() {
		t.Errorf("second Or changed the merge: %v (count %d) to %v (count %d)", m, m.Count(), again, again.Count())
	}
	return m
}

// FuzzKernelEquivalence drives random window starts, capacities, and
// densities through AndCount, the or / xor / and-not identities on it and
// the Or merge (into a filled and into an empty vector, once and twice, the
// destination narrower than the source or not), asserting bit-for-bit
// agreement with the naive per-bit reference and with the ID-set model, and
// that no step leaves a bit stored outside a window. Half the inputs are
// moved down by 2^15 IDs, so that windows lie below zero or across it.
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
			sa, sb = sa-1<<15, sb-1<<15
		}
		wa := 1 + int(widthA)%capA
		wb := 1 + int(widthB)%capB
		a, ma := buildFuzzVector(capA, sa, wa, densA, seedA)
		b, mb := buildFuzzVector(capB, sb, wb, densB, seedB)

		checkCountKernels(t, a, b, ma, mb)
		checkOrMerge(t, a, b, ma, mb)
		// Into an empty vector Or keeps the newest bits its capacity holds —
		// the source may hold a wider window.
		e := checkOrMerge(t, New(capA), b, newModel(capA), mb)
		if e.lastID != b.lastID || e.Window() != min(b.Window(), capA) {
			t.Errorf("Or into empty: window [%d,%d] from source [%d,%d] at capacity %d",
				e.firstID, e.lastID, b.firstID, b.lastID, capA)
		}
	})
}
