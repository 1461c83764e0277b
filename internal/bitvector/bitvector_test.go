package bitvector

import (
	"maps"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEmptyVector(t *testing.T) {
	v := New(64)
	if v.Window() != 0 {
		t.Fatalf("empty vector window = %d, want 0", v.Window())
	}
	if v.Count() != 0 {
		t.Fatalf("empty vector count = %d, want 0", v.Count())
	}
	if v.Fraction() != 0 {
		t.Fatalf("empty vector fraction = %v, want 0", v.Fraction())
	}
	if v.Get(0) {
		t.Fatal("empty vector reports bit 0 set")
	}
}

func TestDefaultCapacity(t *testing.T) {
	v := New(0)
	if v.Capacity() != DefaultCapacity {
		t.Fatalf("capacity = %d, want %d", v.Capacity(), DefaultCapacity)
	}
	if DefaultCapacity != 1280 {
		t.Fatalf("paper default capacity is 1280, got %d", DefaultCapacity)
	}
}

func TestSetAndGet(t *testing.T) {
	v := New(128)
	for _, id := range []int{5, 7, 100, 42} {
		v.Set(id)
	}
	for _, id := range []int{5, 7, 100, 42} {
		if !v.Get(id) {
			t.Errorf("bit %d not set", id)
		}
	}
	for _, id := range []int{6, 8, 99, 101} {
		if v.Get(id) {
			t.Errorf("bit %d unexpectedly set", id)
		}
	}
	if v.Count() != 4 {
		t.Fatalf("count = %d, want 4", v.Count())
	}
	if v.FirstID() != 5 {
		t.Fatalf("firstID = %d, want 5 (anchored at first set)", v.FirstID())
	}
	if v.LastID() != 100 {
		t.Fatalf("lastID = %d, want 100", v.LastID())
	}
}

// TestPaperShiftExample reproduces the worked example from Section III-B:
// bit vector length 10, first-bit counter at 100, incoming publication ID
// 119 → shift by 10 bits, set bit at index 9, counter becomes 110.
func TestPaperShiftExample(t *testing.T) {
	v := New(10)
	v.Set(100) // anchor window at 100
	for id := 101; id <= 109; id++ {
		v.Set(id) // fill the window [100,109]
	}
	if v.FirstID() != 100 {
		t.Fatalf("firstID = %d, want 100", v.FirstID())
	}
	v.Set(119)
	if v.FirstID() != 110 {
		t.Fatalf("after shift firstID = %d, want 110", v.FirstID())
	}
	if !v.Get(119) {
		t.Fatal("bit for ID 119 should be set at index 9")
	}
	for id := 100; id <= 109; id++ {
		if v.Get(id) {
			t.Errorf("pre-shift bit %d should have been discarded", id)
		}
	}
}

func TestSetBelowWindowDropped(t *testing.T) {
	v := New(10)
	v.Set(100)
	v.Set(119) // slides window to [110,119]
	v.Set(105) // below window: dropped
	if v.Get(105) {
		t.Fatal("bit below window must not be recorded")
	}
	if v.Count() != 1 {
		t.Fatalf("count = %d, want 1", v.Count())
	}
}

func TestObserveExtendsWindowWithoutSetting(t *testing.T) {
	v := New(100)
	v.Set(0)
	v.Observe(49)
	if v.Window() != 50 {
		t.Fatalf("window = %d, want 50", v.Window())
	}
	if v.Count() != 1 {
		t.Fatalf("count = %d, want 1", v.Count())
	}
	if v.Fraction() != 0.02 {
		t.Fatalf("fraction = %v, want 0.02", v.Fraction())
	}
}

func TestObserveSlidesWindow(t *testing.T) {
	v := New(10)
	for id := 0; id < 10; id++ {
		v.Set(id)
	}
	v.Observe(14) // slides 5 bits off
	if v.FirstID() != 5 {
		t.Fatalf("firstID = %d, want 5", v.FirstID())
	}
	if v.Count() != 5 {
		t.Fatalf("count = %d, want 5", v.Count())
	}
}

func TestOrSamePublisher(t *testing.T) {
	// Figure 1: S1 has Adv1 bits {75,76,77}, S2 has Adv1 bits {77,78,79};
	// the OR has {75..79}.
	a := New(64)
	for _, id := range []int{75, 76, 77} {
		a.Set(id)
	}
	b := New(64)
	for _, id := range []int{77, 78, 79} {
		b.Set(id)
	}
	a.Or(b)
	for id := 75; id <= 79; id++ {
		if !a.Get(id) {
			t.Errorf("OR missing bit %d", id)
		}
	}
	if a.Count() != 5 {
		t.Fatalf("OR count = %d, want 5", a.Count())
	}
}

func TestOrIntoEmpty(t *testing.T) {
	a := New(64)
	b := New(64)
	b.Set(10)
	b.Set(20)
	a.Or(b)
	if a.Count() != 2 || !a.Get(10) || !a.Get(20) {
		t.Fatalf("OR into empty: got count=%d", a.Count())
	}
	// The source must be unchanged.
	if b.Count() != 2 {
		t.Fatalf("source modified: count=%d", b.Count())
	}
}

func TestAlignedCounts(t *testing.T) {
	a := New(64)
	b := New(64)
	for _, id := range []int{1, 2, 3, 4} {
		a.Set(id)
	}
	for _, id := range []int{3, 4, 5, 6} {
		b.Set(id)
	}
	// Extend both windows to a common range so "outside" bits are clear.
	a.Observe(6)
	b.Observe(6)
	b.Observe(1)
	if got := AndCount(a, b); got != 2 {
		t.Errorf("AndCount = %d, want 2", got)
	}
	if got := orCount(a, b); got != 6 {
		t.Errorf("orCount = %d, want 6", got)
	}
	if got := xorCount(a, b); got != 4 {
		t.Errorf("xorCount = %d, want 4", got)
	}
	if got := andNotCount(a, b); got != 2 {
		t.Errorf("andNotCount(a,b) = %d, want 2", got)
	}
	if got := andNotCount(b, a); got != 2 {
		t.Errorf("andNotCount(b,a) = %d, want 2", got)
	}
}

func TestCountsWithDisjointWindows(t *testing.T) {
	a := New(16)
	b := New(16)
	a.Set(0)
	a.Set(1)
	b.Set(100)
	b.Set(101)
	if got := AndCount(a, b); got != 0 {
		t.Errorf("AndCount disjoint = %d, want 0", got)
	}
	if got := orCount(a, b); got != 4 {
		t.Errorf("orCount disjoint = %d, want 4", got)
	}
	if got := xorCount(a, b); got != 4 {
		t.Errorf("xorCount disjoint = %d, want 4", got)
	}
}

// TestCountsAcrossGridOffsets sweeps where two windows sit on the word grid:
// first IDs at every in-word offset on both sides, last IDs at every in-word
// offset on both sides, and full windows of capacities around the word size —
// each filled to its last bit, so that it reaches as far into its storage as
// it can — at every offset, with windows above zero, across it and wholly
// below it. Every pair goes through the count kernel and both Or merges.
func TestCountsAcrossGridOffsets(t *testing.T) {
	// Windows overlap but start at different IDs and offsets in their words.
	a := New(256)
	b := New(256)
	for id := 0; id < 200; id += 3 {
		a.Set(id)
	}
	for id := 63; id < 263; id += 3 {
		b.Set(id)
	}
	a.Observe(199)
	b.Observe(262)
	// Common window [63,199]: a has bits ≡0 mod 3, b has ≡0 mod 3
	// (63 ≡ 0 mod 3) so they coincide exactly there.
	want := 0
	for id := 63; id <= 199; id++ {
		if id%3 == 0 {
			want++
		}
	}
	if got := AndCount(a, b); got != want {
		t.Errorf("AndCount = %d, want %d", got, want)
	}

	rng := rand.New(rand.NewSource(21))
	straddling, negative := 0, 0
	grid := func(capacity, first, last int) (*Vector, *model) {
		v, m := New(capacity), newModel(capacity)
		v.Observe(first) // the window starts here whether or not the bit is set
		m.Observe(first)
		for id := first; id <= last; id++ {
			if rng.Intn(2) == 0 {
				v.Set(id)
				m.Set(id)
			}
		}
		v.Observe(last)
		m.Observe(last)
		if v.FirstID() != first || v.LastID() != last {
			t.Fatalf("grid vector %v, want window [%d,%d]", v, first, last)
		}
		switch {
		case last < 0:
			negative++
		case first < 0:
			straddling++
		}
		return v, m
	}
	check := func(capA, firstA, lastA, capB, firstB, lastB int) {
		t.Helper()
		x, mx := grid(capA, firstA, lastA)
		y, my := grid(capB, firstB, lastB)
		checkCountKernels(t, x, y, mx, my)
		checkOrMerge(t, x, y, mx, my)
		checkOrMerge(t, y, x, my, mx)
	}
	for _, origin := range []int{0, -40, -100000} {
		for oa := 0; oa < wordBits; oa++ {
			for ob := 0; ob < wordBits; ob++ {
				// First IDs at offsets (oa, ob), up to two words apart.
				firstA, firstB := origin+oa, origin+64*rng.Intn(3)+ob
				check(320, firstA, firstA+rng.Intn(200), 320, firstB, firstB+rng.Intn(200))
				// Last IDs at offsets (oa, ob), likewise.
				lastA, lastB := origin+256+oa, origin+256+64*rng.Intn(3)+ob
				check(320, lastA-rng.Intn(200), lastA, 320, lastB-rng.Intn(200), lastB)
			}
		}
		// A full window at every offset against a partner that covers it,
		// one that starts inside it and one that ends inside it.
		for _, capacity := range []int{1, 63, 64, 65, 127, 128, DefaultCapacity} {
			for off := 0; off < wordBits; off++ {
				first := origin + off
				last := first + capacity - 1
				mid := first + capacity/2
				check(capacity, first, last, capacity+128, first-rng.Intn(64), last+rng.Intn(64))
				check(capacity, first, last, capacity, mid, mid+rng.Intn(capacity))
				check(capacity, first, last, capacity, mid-rng.Intn(capacity), mid)
			}
		}
	}
	if straddling == 0 || negative == 0 {
		t.Fatalf("%d windows across zero, %d below it: the sweep covers neither", straddling, negative)
	}
}

// TestHostileIDs: message IDs reach Set straight off the wire
// (Publication.Seq), so two IDs may be further apart than an int can say.
// The window must stay inside the capacity and the storage, the count exact,
// and the newer ID recorded.
func TestHostileIDs(t *testing.T) {
	for _, first := range []int{math.MinInt, math.MinInt + 3, -5, 0} {
		for _, second := range []int{math.MaxInt, math.MinInt + 100, math.MinInt + 200, 70} {
			for _, observe := range []bool{false, true} {
				v := New(128)
				v.Set(first)
				if observe {
					v.Observe(second)
				}
				v.Set(second)
				if w := v.Window(); w < 1 || w > v.Capacity() {
					t.Fatalf("Set(%d), Set(%d): window %d, capacity %d", first, second, w, v.Capacity())
				}
				checkStored(t, v)
				n := 0
				for i := 0; i < v.Window(); i++ {
					if v.Get(v.FirstID() + i) {
						n++
					}
				}
				if v.Count() != n {
					t.Fatalf("Set(%d), Set(%d): Count() = %d, per-bit count = %d", first, second, v.Count(), n)
				}
				if newer := max(first, second); !v.Get(newer) || v.LastID() != newer {
					t.Fatalf("Set(%d), Set(%d): %v does not end on the newer ID set", first, second, v)
				}
			}
		}
	}
}

// model is a brute-force reference implementation of the windowed vector
// using a set of ints.
type model struct {
	first, last, capacity int
	set                   map[int]bool
}

func newModel(capacity int) *model {
	return &model{first: 0, last: -1, capacity: capacity, set: make(map[int]bool)}
}

func (m *model) Set(id int) {
	if m.last < m.first {
		m.first = id
		m.last = id
		m.set[id] = true
		return
	}
	if id < m.first {
		return
	}
	if id > m.last {
		m.last = id
	}
	if id-m.first >= m.capacity {
		m.first = id - m.capacity + 1
		for k := range m.set {
			if k < m.first {
				delete(m.set, k)
			}
		}
	}
	m.set[id] = true
}

func (m *model) Observe(id int) {
	if m.last < m.first {
		m.first = id
		m.last = id
		return
	}
	if id <= m.last {
		return
	}
	m.last = id
	if id-m.first >= m.capacity {
		m.first = id - m.capacity + 1
		for k := range m.set {
			if k < m.first {
				delete(m.set, k)
			}
		}
	}
}

func (m *model) Count() int { return len(m.set) }

func (m *model) Clone() *model {
	return &model{first: m.first, last: m.last, capacity: m.capacity, set: maps.Clone(m.set)}
}

// Or is Vector.Or on ID sets: the window grows to o's newest ID — an empty
// one is anchored on o's window first — and takes every ID of o it still
// covers.
func (m *model) Or(o *model) {
	if o.last < o.first {
		return
	}
	m.Observe(o.first)
	m.Observe(o.last)
	for id := range o.set {
		if id >= m.first {
			m.set[id] = true
		}
	}
}

// TestQuickVectorMatchesModel drives random Set/Observe sequences through
// both the real vector and the set model and checks the stored words after
// every step and count, window, and per-bit agreement at the end.
func TestQuickVectorMatchesModel(t *testing.T) {
	f := func(seed int64, ops []uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(200)
		v := New(capacity)
		m := newModel(capacity)
		cursor := rng.Intn(400) - 300 // some runs start below zero and cross it
		for _, op := range ops {
			step := int(op % 37)
			cursor += step
			if op%5 == 0 {
				v.Observe(cursor)
				m.Observe(cursor)
			} else {
				v.Set(cursor)
				m.Set(cursor)
			}
			checkStored(t, v)
		}
		checkModel(t, v, m)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAlignedOpsMatchModel checks And/Or/Xor/AndNot counts against the
// set-model equivalents on random vector pairs.
func TestQuickAlignedOpsMatchModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capacity := 16 + rng.Intn(300)
		build := func() (*Vector, map[int]bool, int, int) {
			v := New(capacity)
			start := rng.Intn(100)
			width := 1 + rng.Intn(capacity)
			set := make(map[int]bool)
			for i := 0; i < width; i++ {
				if rng.Intn(2) == 0 {
					v.Set(start + i)
					set[start+i] = true
				}
			}
			v.Observe(start + width - 1)
			// The model window after all ops:
			return v, set, v.FirstID(), v.LastID()
		}
		a, sa, af, al := build()
		b, sb, bf, bl := build()
		inWin := func(id, f, l int) bool { return id >= f && id <= l }
		var and, or, xor, andnotAB, andnotBA int
		lo, hi := af, al
		if bf < lo {
			lo = bf
		}
		if bl > hi {
			hi = bl
		}
		for id := lo; id <= hi; id++ {
			x := sa[id] && inWin(id, af, al)
			y := sb[id] && inWin(id, bf, bl)
			both := id >= af && id <= al && id >= bf && id <= bl
			if both && x && y {
				and++
			}
			if x || y {
				or++
			}
			// xorCount counts differences in the overlap plus all set bits
			// outside the common window.
			if both {
				if x != y {
					xor++
				}
			} else if x || y {
				xor++
			}
			if x && !(both && y) {
				andnotAB++
			}
			if y && !(both && x) {
				andnotBA++
			}
		}
		ok := true
		if got := AndCount(a, b); got != and {
			t.Logf("AndCount=%d want %d", got, and)
			ok = false
		}
		if got := orCount(a, b); got != or {
			t.Logf("orCount=%d want %d", got, or)
			ok = false
		}
		if got := xorCount(a, b); got != xor {
			t.Logf("xorCount=%d want %d", got, xor)
			ok = false
		}
		if got := andNotCount(a, b); got != andnotAB {
			t.Logf("andNotCount(a,b)=%d want %d", got, andnotAB)
			ok = false
		}
		if got := andNotCount(b, a); got != andnotBA {
			t.Logf("andNotCount(b,a)=%d want %d", got, andnotBA)
			ok = false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickOrMatchesModel checks Or against set union on random pairs.
func TestQuickOrMatchesModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capacity := 16 + rng.Intn(200)
		a := New(capacity)
		b := New(capacity)
		sa := make(map[int]bool)
		sb := make(map[int]bool)
		for i := 0; i < 100; i++ {
			id := rng.Intn(capacity * 2)
			if rng.Intn(2) == 0 {
				a.Set(id)
			} else {
				b.Set(id)
			}
		}
		// Rebuild reference sets from the vectors themselves (window
		// semantics already tested above).
		for id := a.FirstID(); id <= a.LastID(); id++ {
			if a.Get(id) {
				sa[id] = true
			}
		}
		for id := b.FirstID(); id <= b.LastID(); id++ {
			if b.Get(id) {
				sb[id] = true
			}
		}
		a.Or(b)
		// Every bit of the union that is within a's final window must be
		// set; bits outside may have been discarded by capacity.
		for id := range sb {
			sa[id] = true
		}
		for id := a.FirstID(); id <= a.LastID(); id++ {
			if sa[id] && !a.Get(id) {
				t.Logf("union bit %d missing after Or", id)
				return false
			}
			if !sa[id] && a.Get(id) {
				t.Logf("spurious bit %d after Or", id)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestOrIdempotent is the property allocation's first-fit kernel rests its
// skipped OR on: after v.Or(o), a second v.Or(o) changes nothing — firstID,
// lastID, cached count and every word stay bit-equal — and the merge is the
// per-bit union over the merged window. Destinations are empty or filled;
// sources start a whole number of words from them, anywhere else, or past
// them (disjoint), are empty, slid clean of bits, and of a larger capacity
// holding a wider window than the destination can, so that Or has to clamp.
func TestOrIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	caps := []int{64, 100, 128, 256, DefaultCapacity}
	fill := func(capacity, start int) *Vector {
		v := New(capacity)
		switch rng.Intn(6) {
		case 0: // empty window
		case 1: // a window slid clean of bits
			v.Set(start)
			v.Observe(start + 3*capacity)
		default:
			width := 1 + rng.Intn(2*capacity)
			density := 1 + rng.Intn(255)
			for id := start; id < start+width; id++ {
				if rng.Intn(256) < density {
					v.Set(id)
				}
			}
			v.Observe(start + width - 1)
		}
		return v
	}
	clamped := 0
	for trial := 0; trial < 4000; trial++ {
		vStart, oStart := 64*rng.Intn(4), 64*rng.Intn(4) // whole words apart
		switch rng.Intn(3) {
		case 0:
			oStart = rng.Intn(300) // anywhere
		case 1:
			oStart += 5000 // disjoint
		}
		v := fill(caps[rng.Intn(len(caps))], vStart)
		o := fill(caps[rng.Intn(len(caps))], oStart)
		if o.Window() > v.Capacity() {
			clamped++
		}
		union := make(map[int]bool)
		for _, x := range []*Vector{v, o} {
			for id := x.FirstID(); id <= x.LastID(); id++ {
				if x.Get(id) {
					union[id] = true
				}
			}
		}
		before := o.Clone()
		v.Or(o)
		once := v.Clone()
		v.Or(o)
		if v.firstID != once.firstID || v.lastID != once.lastID || v.count != once.count {
			t.Fatalf("trial %d: second Or moved %v to %v", trial, once, v)
		}
		for i := range v.words {
			if v.words[i] != once.words[i] {
				t.Fatalf("trial %d: second Or changed word %d: %#x to %#x", trial, i, once.words[i], v.words[i])
			}
		}
		n := 0
		for id := v.FirstID(); id <= v.LastID(); id++ {
			if v.Get(id) != union[id] {
				t.Fatalf("trial %d: bit %d = %v after Or, the union has %v (v=%v o=%v)", trial, id, v.Get(id), union[id], once, o)
			}
			if union[id] {
				n++
			}
		}
		if v.Count() != n {
			t.Fatalf("trial %d: cached count %d, per-bit count %d", trial, v.Count(), n)
		}
		if o.firstID != before.firstID || o.lastID != before.lastID || o.count != before.count {
			t.Fatalf("trial %d: Or modified its source", trial)
		}
	}
	if clamped == 0 {
		t.Fatal("no trial had a source window wider than the destination's capacity")
	}
}

func TestCloneIndependence(t *testing.T) {
	v := New(32)
	v.Set(1)
	c := v.Clone()
	c.Set(2)
	if v.Get(2) {
		t.Fatal("clone write leaked into original")
	}
	if !c.Get(1) {
		t.Fatal("clone lost original bit")
	}
}

func TestShiftAcrossManyWords(t *testing.T) {
	v := New(256)
	for id := 0; id < 256; id++ {
		v.Set(id)
	}
	v.Set(256 + 130) // shift by 131
	if v.FirstID() != 131 {
		t.Fatalf("firstID = %d, want 131", v.FirstID())
	}
	want := 256 - 131 + 1 // surviving bits + the new one
	if v.Count() != want {
		t.Fatalf("count = %d, want %d", v.Count(), want)
	}
}

func BenchmarkVectorSet(b *testing.B) {
	v := New(DefaultCapacity)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.Set(i)
	}
}

// BenchmarkAndCount is one full-capacity pair evaluation. The windows start
// 13 IDs apart — where they start is immaterial to the kernel, which walks
// the grid words they share.
func BenchmarkAndCount(b *testing.B) {
	x := New(DefaultCapacity)
	y := New(DefaultCapacity)
	for i := 0; i < DefaultCapacity; i += 2 {
		x.Set(i)
		y.Set(i + 13)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AndCount(x, y)
	}
}
