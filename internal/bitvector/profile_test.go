package bitvector

import (
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// buildProfile constructs a profile from explicit (publisher, ids, window)
// triples. The window end is observed so fractions are well-defined.
func buildProfile(t *testing.T, specs map[string]struct {
	ids  []int
	last int
}) *Profile {
	t.Helper()
	p := NewProfile(256)
	for adv, s := range specs {
		for _, id := range s.ids {
			p.Record(adv, id)
		}
		if v := p.Vector(adv); v != nil {
			v.Observe(s.last)
		}
	}
	return p
}

func TestPaperFigure1Clustering(t *testing.T) {
	// Figure 1: S1 = {Adv1: 75,76,77 of [75..79], Adv2: 144..148},
	// S2 = {Adv1: 77,78,79, Adv3: 2 (bit at id 4 of window starting 2)}.
	// S1+S2 has Adv1 = 75..79 (all 5), Adv2 unchanged, Adv3 from S2.
	s1 := NewProfile(64)
	for _, id := range []int{75, 76, 77} {
		s1.Record("Adv1", id)
	}
	s1.Vector("Adv1").Observe(79)
	for id := 144; id <= 148; id++ {
		s1.Record("Adv2", id)
	}
	s2 := NewProfile(64)
	for _, id := range []int{77, 78, 79} {
		s2.Record("Adv1", id)
	}
	s2.Vector("Adv1").Observe(75) // no-op: Observe only advances
	s2.Record("Adv3", 4)

	merged := NewProfile(64)
	merged.Or(s1)
	merged.Or(s2)
	if got := merged.Vector("Adv1").Count(); got != 5 {
		t.Errorf("merged Adv1 count = %d, want 5", got)
	}
	if got := merged.Vector("Adv2").Count(); got != 5 {
		t.Errorf("merged Adv2 count = %d, want 5", got)
	}
	if got := merged.Vector("Adv3").Count(); got != 1 {
		t.Errorf("merged Adv3 count = %d, want 1", got)
	}
	// Originals untouched.
	if s1.Vector("Adv1").Count() != 3 || s2.Vector("Adv1").Count() != 3 {
		t.Error("Merged must not mutate its inputs")
	}
}

func TestPaperLoadEstimationExample(t *testing.T) {
	// Section III-B: 10 of 100 bits set, publisher at 50 msg/s and
	// 50 kB/s → subscription induces 5 msg/s and 5 kB/s.
	p := NewProfile(128)
	for id := 0; id < 10; id++ {
		p.Record("A", id)
	}
	p.Vector("A").Observe(99)
	stats := map[string]*PublisherStats{
		"A": {AdvID: "A", Rate: 50, Bandwidth: 50_000, LastSeq: 99},
	}
	load := EstimateLoad(p, stats)
	if math.Abs(load.Rate-5) > 1e-9 {
		t.Errorf("rate = %v, want 5", load.Rate)
	}
	if math.Abs(load.Bandwidth-5_000) > 1e-9 {
		t.Errorf("bandwidth = %v, want 5000", load.Bandwidth)
	}
}

func TestRelateBasics(t *testing.T) {
	type spec = map[string]struct {
		ids  []int
		last int
	}
	cases := []struct {
		name string
		a, b spec
		want Relationship
	}{
		{
			name: "equal",
			a:    spec{"P1": {[]int{1, 2, 3}, 5}},
			b:    spec{"P1": {[]int{1, 2, 3}, 5}},
			want: RelEqual,
		},
		{
			name: "superset",
			a:    spec{"P1": {[]int{1, 2, 3, 4}, 5}},
			b:    spec{"P1": {[]int{2, 3}, 5}},
			want: RelSuperset,
		},
		{
			name: "subset",
			a:    spec{"P1": {[]int{2}, 5}},
			b:    spec{"P1": {[]int{1, 2, 3}, 5}},
			want: RelSubset,
		},
		{
			name: "intersect",
			a:    spec{"P1": {[]int{1, 2}, 5}},
			b:    spec{"P1": {[]int{2, 3}, 5}},
			want: RelIntersect,
		},
		{
			name: "empty",
			a:    spec{"P1": {[]int{1}, 5}},
			b:    spec{"P2": {[]int{1}, 5}},
			want: RelEmpty,
		},
		{
			name: "superset across publishers",
			a:    spec{"P1": {[]int{1, 2}, 5}, "P2": {[]int{7}, 9}},
			b:    spec{"P1": {[]int{1}, 5}},
			want: RelSuperset,
		},
		{
			name: "intersect across publishers",
			a:    spec{"P1": {[]int{1}, 5}, "P2": {[]int{7}, 9}},
			b:    spec{"P1": {[]int{1}, 5}, "P3": {[]int{3}, 9}},
			want: RelIntersect,
		},
		{
			name: "both empty profiles are equal",
			a:    spec{},
			b:    spec{},
			want: RelEqual,
		},
		{
			name: "empty profile is subset of non-empty",
			a:    spec{},
			b:    spec{"P1": {[]int{1}, 5}},
			want: RelSubset,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := buildProfile(t, tc.a)
			b := buildProfile(t, tc.b)
			if got := Relate(a, b); got != tc.want {
				t.Errorf("Relate = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestQuickRelateMatchesSetModel compares Relate and the union, difference
// and symmetric-difference counts against brute-force set relations on
// random profiles: each publisher is absent, present with an empty window
// (as Profile.Or can leave it) or recorded, independently on each side, so
// one-sided publishers and empty windows are in the draw.
func TestQuickRelateMatchesSetModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pubs := []string{"P1", "P2", "P3"}
		build := func() (*Profile, map[[2]interface{}]bool) {
			p := NewProfile(64)
			set := make(map[[2]interface{}]bool)
			for _, pub := range pubs {
				switch rng.Intn(4) {
				case 0:
					continue
				case 1:
					p.Or(&Profile{capacity: 64, entries: []entry{{advID: pub, vec: *New(64)}}})
					continue
				}
				start := rng.Intn(30)
				for i := start; i < start+20; i++ {
					if rng.Intn(2) == 0 {
						p.Record(pub, i)
						set[[2]interface{}{pub, i}] = true
					}
				}
				if v := p.Vector(pub); v != nil {
					v.Observe(start + 19)
				}
			}
			return p, set
		}
		a, sa := build()
		b, sb := build()
		onlyA, onlyB, both := 0, 0, 0
		for k := range sa {
			if sb[k] {
				both++
			} else {
				onlyA++
			}
		}
		for k := range sb {
			if !sa[k] {
				onlyB++
			}
		}
		var want Relationship
		switch {
		case onlyA == 0 && onlyB == 0:
			want = RelEqual
		case onlyB == 0 && both > 0, onlyB == 0 && onlyA > 0:
			want = RelSuperset
		case onlyA == 0:
			want = RelSubset
		case both > 0:
			want = RelIntersect
		default:
			want = RelEmpty
		}
		ok := true
		if got := Relate(a, b); got != want {
			t.Logf("Relate = %v, want %v (onlyA=%d onlyB=%d both=%d)", got, want, onlyA, onlyB, both)
			ok = false
		}
		got := [4]int{IntersectCount(a, b), DiffCount(a, b), DiffCount(b, a), XorProfileCount(a, b)}
		if model := [4]int{both, onlyA, onlyB, onlyA + onlyB}; got != model {
			t.Logf("[intersect a\\b b\\a xor] = %v, set model = %v", got, model)
			ok = false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestClosenessMetrics(t *testing.T) {
	// a = 4 bits {0..3}, b = 4 bits {2..5}: intersection 2, union 6, xor 4.
	a := buildProfile(t, map[string]struct {
		ids  []int
		last int
	}{"P": {[]int{0, 1, 2, 3}, 7}})
	b := buildProfile(t, map[string]struct {
		ids  []int
		last int
	}{"P": {[]int{2, 3, 4, 5}, 7}})

	if got := Closeness(MetricIntersect, a, b); got != 2 {
		t.Errorf("INTERSECT = %v, want 2", got)
	}
	if got := Closeness(MetricXor, a, b); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("XOR = %v, want 0.25", got)
	}
	if got := Closeness(MetricIOS, a, b); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("IOS = %v, want 4/8 = 0.5", got)
	}
	if got := Closeness(MetricIOU, a, b); math.Abs(got-4.0/6.0) > 1e-12 {
		t.Errorf("IOU = %v, want 4/6", got)
	}
}

func TestClosenessEmptyRelationIsZeroExceptXor(t *testing.T) {
	a := buildProfile(t, map[string]struct {
		ids  []int
		last int
	}{"P1": {[]int{0, 1}, 7}})
	b := buildProfile(t, map[string]struct {
		ids  []int
		last int
	}{"P2": {[]int{0, 1}, 7}})
	for _, m := range []Metric{MetricIntersect, MetricIOS, MetricIOU} {
		if got := Closeness(m, a, b); got != 0 {
			t.Errorf("%v on empty relation = %v, want 0", m, got)
		}
	}
	// XOR is non-zero even for empty relations — the paper's stated flaw.
	if got := Closeness(MetricXor, a, b); got <= 0 {
		t.Errorf("XOR on empty relation = %v, want > 0", got)
	}
}

func TestClosenessXorIdenticalIsCapped(t *testing.T) {
	a := buildProfile(t, map[string]struct {
		ids  []int
		last int
	}{"P": {[]int{0, 1, 2}, 7}})
	if got := Closeness(MetricXor, a, a); got != XorCap {
		t.Errorf("XOR of identical profiles = %v, want cap %v", got, XorCap)
	}
}

// TestPaperFigure3OneToMany verifies the worked IOS numbers in the
// one-to-many clustering discussion: |S1|=36, |S2|=16, |S1∩S2|=8 →
// IOS(S1,S2) = 64/52 ≈ 1.23. The paper text says "8²÷60 ≈ 1.07" using
// |S1|+|S2|=60 pre-overlap counting (36+16+8 double-count removed); we
// follow the formula |S1∩S2|²/(|S1|+|S2|) literally with |S1|=36,|S2|=16
// sharing 8, i.e. denominator 52.
func TestPaperFigure3OneToMany(t *testing.T) {
	s1 := NewProfile(128)
	s2 := NewProfile(128)
	// S1 = ids 0..35; S2 = ids 28..43 → overlap 28..35 = 8 bits.
	for id := 0; id <= 35; id++ {
		s1.Record("P", id)
	}
	for id := 28; id <= 43; id++ {
		s2.Record("P", id)
	}
	s1.Vector("P").Observe(43)
	s2.Vector("P").Observe(0)
	if got := IntersectCount(s1, s2); got != 8 {
		t.Fatalf("intersection = %d, want 8", got)
	}
	want := 64.0 / 52.0
	if got := Closeness(MetricIOS, s1, s2); math.Abs(got-want) > 1e-12 {
		t.Errorf("IOS = %v, want %v", got, want)
	}
}

func TestSyncExtendsWindows(t *testing.T) {
	p := NewProfile(128)
	p.Record("A", 0)
	p.Record("A", 1)
	stats := map[string]*PublisherStats{"A": {AdvID: "A", Rate: 10, Bandwidth: 1000, LastSeq: 19}}
	p.Sync(stats)
	if got := p.Vector("A").Window(); got != 20 {
		t.Fatalf("window after sync = %d, want 20", got)
	}
	load := EstimateLoad(p, stats)
	if math.Abs(load.Rate-1.0) > 1e-9 {
		t.Errorf("rate = %v, want 1.0 (2/20 of 10 msg/s)", load.Rate)
	}
}

func TestEstimateLoadIgnoresUnknownPublishers(t *testing.T) {
	p := NewProfile(64)
	p.Record("ghost", 0)
	load := EstimateLoad(p, map[string]*PublisherStats{})
	if load.Rate != 0 || load.Bandwidth != 0 {
		t.Fatalf("load from unknown publisher = %+v, want zero", load)
	}
}

func TestFingerprintKeyGroupsEqualProfiles(t *testing.T) {
	mk := func() *Profile {
		p := NewProfile(64)
		p.Record("B", 3)
		p.Record("A", 1)
		p.Record("A", 2)
		return p
	}
	a, b := mk(), mk()
	if a.FingerprintKey() != b.FingerprintKey() {
		t.Fatal("identical profiles must share a fingerprint key")
	}
	b.Record("A", 4)
	if a.FingerprintKey() == b.FingerprintKey() {
		t.Fatal("different profiles must not share a fingerprint key")
	}
	// Disjoint profiles whose advertisement IDs and message IDs, spelt out
	// one after the other, read the same.
	x, y := NewProfile(64), NewProfile(64)
	x.Record("x", 1)
	x.Record("y", 2)
	y.Record("x:1,;y", 2)
	if Relate(x, y) != RelEmpty {
		t.Fatalf("Relate = %v, want empty", Relate(x, y))
	}
	if x.FingerprintKey() == y.FingerprintKey() {
		t.Fatalf("disjoint profiles share the fingerprint key %q", x.FingerprintKey())
	}
}

// idPair is one (publisher, message ID) pair of a profile's set.
type idPair struct {
	adv string
	id  int
}

// idSet lists the profile's (publisher, message ID) pairs in entry and ID
// order, read one bit at a time through Get: the set a fingerprint key must
// identify, computed without the key's word arithmetic.
func idSet(p *Profile) []idPair {
	var out []idPair
	for _, e := range p.entries {
		for id := e.vec.firstID; id <= e.vec.lastID; id++ {
			if e.vec.Get(id) {
				out = append(out, idPair{e.advID, id})
			}
		}
	}
	return out
}

// checkKeyInjective fails unless p and q have equal fingerprint keys exactly
// when they hold the same (publisher, message ID) set.
func checkKeyInjective(t *testing.T, p, q *Profile) {
	t.Helper()
	sp, sq := idSet(p), idSet(q)
	if same, keys := slices.Equal(sp, sq), p.FingerprintKey() == q.FingerprintKey(); same != keys {
		t.Fatalf("sets %v and %v: equal sets %v, equal keys %v (%q, %q)", sp, sq, same, keys, p.FingerprintKey(), q.FingerprintKey())
	}
}

// keyAdvIDs are advertisement IDs built to collide when keys are spelt out:
// prefixes of each other, digits, and the old text key's separators.
var keyAdvIDs = []string{"x", "y", "x:1,;y", "x:1", "1", "12", "1:2,", ",", ";", ":", "x;", ""}

// keyCapacities are the profile capacities the key tests draw from: on and
// off the word grid, below and above one word.
var keyCapacities = []int{1, 63, 64, 65, 100, 128, 200, DefaultCapacity}

// TestFingerprintKeyInjective holds FingerprintKey to its contract on random
// pairs of profiles built to nearly collide: one ID set materialized at
// different capacities, windows slid so that leading or trailing words are
// zero, negative IDs, pairs one bit (or one grid word, or one publisher)
// apart, vectors that are empty or whose bits were slid out, and
// advertisement IDs that spell out like each other.
func TestFingerprintKeyInjective(t *testing.T) {
	// Pairs that would collide were a field left out of the key: without the
	// length prefix the second advertisement ID swallows the head of the
	// first's record, and without the word count the first profile's words
	// run on into the next publisher's record.
	w := binary.LittleEndian.Uint64([]byte{6, 'b', 'b', 'b', 'b', 'b', 'b', 0})
	checkKeyInjective(t, withWords(NewProfile(0), "a", 1<<56, 1), withWords(NewProfile(0), "a\x00\x02\x00\x00\x00\x00\x00\x00", 1))
	checkKeyInjective(t, withWords(withWords(NewProfile(0), "a", 1), "bbbbbb", 1), withWords(NewProfile(0), "a", 1, w, 1))

	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 4000; trial++ {
		// The ID set: a few publishers, each a run of IDs inside one span
		// that every capacity above 100 holds whole.
		spec := map[string][]int{}
		for pub := rng.Intn(4); pub >= 0; pub-- {
			adv := keyAdvIDs[rng.Intn(len(keyAdvIDs))]
			start := rng.Intn(3000) - 1500
			for id := start; id < start+rng.Intn(100)+1; id++ {
				if rng.Intn(3) == 0 {
					spec[adv] = append(spec[adv], id)
				}
			}
		}
		// The other set: the same, or one publisher's IDs changed.
		other := map[string][]int{}
		for adv, ids := range spec {
			other[adv] = slices.Clone(ids)
		}
		if advs := sortedAdvs(spec); len(advs) > 0 {
			adv := advs[rng.Intn(len(advs))]
			ids := other[adv] // never empty
			switch rng.Intn(6) {
			case 0: // one bit more
				other[adv] = append(ids, ids[len(ids)-1]+1+rng.Intn(3))
			case 1: // one bit less
				other[adv] = slices.Delete(ids, len(ids)/2, len(ids)/2+1)
			case 2: // the same words one grid word further on
				for i := range ids {
					ids[i] += 64
				}
			case 3: // the same bits under another publisher
				delete(other, adv)
				other[keyAdvIDs[rng.Intn(len(keyAdvIDs))]] = ids
			default: // the same set
			}
		}
		p := materialize(rng, keyCapacities[rng.Intn(len(keyCapacities))], spec)
		q := materialize(rng, keyCapacities[rng.Intn(len(keyCapacities))], other)
		checkKeyInjective(t, p, q)
		checkKeyInjective(t, p, p.Clone())
	}
}

// withWords records into p, under adv, the IDs of the given grid words from
// grid word 0 on, and returns p.
func withWords(p *Profile, adv string, words ...uint64) *Profile {
	for k, w := range words {
		for ; w != 0; w &= w - 1 {
			p.Record(adv, k*wordBits+bits.TrailingZeros64(w))
		}
	}
	return p
}

// sortedAdvs returns the advertisement IDs of an ID set in ascending order.
func sortedAdvs(spec map[string][]int) []string {
	advs := make([]string, 0, len(spec))
	for adv := range spec {
		advs = append(advs, adv)
	}
	slices.Sort(advs)
	return advs
}

// materialize records an ID set into a new profile of the given capacity, in
// ascending advertisement ID order, shaping each vector's window at random:
// anchored up to a few words before its first ID (leading zero words), slid
// past its last (trailing zero words, or no bit left), or just as recorded.
// Publishers with no IDs still get a vector, empty or slid clean. A capacity
// smaller than a run keeps only the run's tail.
func materialize(rng *rand.Rand, capacity int, spec map[string][]int) *Profile {
	p := NewProfile(capacity)
	for _, adv := range sortedAdvs(spec) {
		ids := spec[adv]
		if len(ids) == 0 {
			p.Or(&Profile{capacity: capacity, entries: []entry{{advID: adv, vec: *New(capacity)}}})
			continue
		}
		if rng.Intn(3) == 0 {
			p.Or(&Profile{capacity: capacity, entries: []entry{{advID: adv, vec: *New(capacity)}}})
			p.Vector(adv).Observe(ids[0] - rng.Intn(3*wordBits))
		}
		for _, id := range ids {
			p.Record(adv, id)
		}
		if rng.Intn(3) == 0 {
			p.Vector(adv).Observe(ids[len(ids)-1] + rng.Intn(2*capacity+1))
		}
	}
	return p
}

// keyProfiles decodes two profiles from fuzz input: capacities from capP and
// capQ, then one step per 4 bytes of steps. A step's first byte names the
// target (bits 0-1: both profiles, the first or the second) and the action
// (bit 2: Observe, else Record), the next two a signed 16-bit message ID, and
// the last the publisher: keyAdvIDs by index, extra past their end. Equal
// sets, sets a step apart and sets under colliding advertisement IDs all
// decode from short inputs.
func keyProfiles(capP, capQ byte, extra string, steps []byte) (p, q *Profile) {
	n := len(keyCapacities)
	p, q = NewProfile(keyCapacities[int(capP)%n]), NewProfile(keyCapacities[int(capQ)%n])
	for ; len(steps) >= 4; steps = steps[4:] {
		id := int(int16(binary.LittleEndian.Uint16(steps[1:3])))
		adv := extra
		if i := int(steps[3]); i < len(keyAdvIDs) {
			adv = keyAdvIDs[i]
		}
		target := steps[0] & 3 // 1: the first only, 2: the second only, else both
		for k, pr := range []*Profile{p, q} {
			if target == byte(2-k) {
				continue
			}
			if steps[0]&4 != 0 {
				if v := pr.Vector(adv); v != nil {
					v.Observe(id)
				}
				continue
			}
			pr.Record(adv, id)
		}
	}
	return p, q
}

// FuzzFingerprintKey holds FingerprintKey to its contract on two profiles
// decoded from the input (keyProfiles): equal keys exactly when the
// (publisher, message ID) sets are equal. The seeds (testdata/fuzz) are the
// pair the text key filed together and pairs a key without its length
// prefix, word count or grid index would.
func FuzzFingerprintKey(f *testing.F) {
	f.Fuzz(func(t *testing.T, capP, capQ byte, extra string, steps []byte) {
		p, q := keyProfiles(capP, capQ, extra, steps)
		checkKeyInjective(t, p, q)
	})
}

func TestSnapshotRoundTrip(t *testing.T) {
	p := NewProfile(96)
	for i := 0; i < 50; i += 3 {
		p.Record("X", i)
		p.Record("Y", i*2)
		p.Record("Z", 1000+37+i) // a window that starts mid-word
	}
	p.Vector("X").Observe(60)
	p.Or(&Profile{capacity: 96, entries: []entry{{advID: "E", vec: *New(96)}}}) // an empty vector
	snap := p.Snapshot()
	q, err := ProfileFromSnapshot(snap)
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if Relate(p, q) != RelEqual {
		t.Fatal("round-tripped profile not equal to original")
	}
	if p.FingerprintKey() != q.FingerprintKey() {
		t.Fatalf("round trip changed the fingerprint: %q to %q", p.FingerprintKey(), q.FingerprintKey())
	}
	for _, adv := range []string{"E", "X", "Y", "Z"} {
		pv, qv := p.Vector(adv), q.Vector(adv)
		if pv.firstID != qv.firstID || pv.lastID != qv.lastID || pv.Count() != qv.Count() || !slices.Equal(pv.words, qv.words) {
			t.Fatalf("%s: %v (count %d) came back as %v (count %d)", adv, pv, pv.Count(), qv, qv.Count())
		}
		checkStored(t, qv)
	}
}

// snapshotFixtures returns a valid image of 80 set bits — IDs 37 to 116,
// the first two of a 128-bit vector's three grid words — the same words
// under a 10-bit window, the words of an empty 64-bit vector, and three
// copies of the valid image with one stray bit each: below First in word 0,
// above Last in the last word the window touches, and in the word past it.
func snapshotFixtures() (full, overfull VectorSnapshot, zeros64 string, stray [3]VectorSnapshot) {
	v := New(128)
	for id := 37; id <= 116; id++ {
		v.Set(id)
	}
	full = v.Snapshot()
	overfull = full
	overfull.First, overfull.Last = 44, 53
	for i, at := range []struct{ word, bit int }{{0, 36}, {1, 117 - 64}, {2, 0}} {
		c := v.Clone()
		c.words[at.word] |= 1 << at.bit
		stray[i] = c.Snapshot()
	}
	return full, overfull, New(64).Snapshot().Words, stray
}

func TestSnapshotRejectsCorrupt(t *testing.T) {
	full, overfull, zeros64, stray := snapshotFixtures()
	for _, c := range []struct {
		name string
		snap VectorSnapshot
	}{
		{"zero capacity", VectorSnapshot{Cap: 0}},
		{"invalid base64", VectorSnapshot{Last: -1, Cap: 64, Words: "!!!"}},
		{"truncated words", VectorSnapshot{Last: -1, Cap: 64, Words: "AAAA"}},
		{"fewer words than the capacity needs", VectorSnapshot{Last: -1, Cap: 1 << 40, Words: zeros64}},
		{"the words of the capacity alone, without the grid's spare word", VectorSnapshot{Last: -1, Cap: 128, Words: zeros64}},
		{"window wider than capacity", VectorSnapshot{First: 0, Last: 5000, Cap: 64, Words: zeros64}},
		{"window wider than an int", VectorSnapshot{First: math.MinInt, Last: math.MaxInt, Cap: 64, Words: zeros64}},
		{"negative window", VectorSnapshot{First: 10, Last: 5, Cap: 64, Words: zeros64}},
		{"bits on both sides of the window", overfull},
		{"bits in an empty window", VectorSnapshot{First: 0, Last: -1, Cap: 128, Words: full.Words}},
		{"bits in an empty window that opens mid-word", VectorSnapshot{First: 40, Last: 39, Cap: 128, Words: full.Words}},
		{"a bit below First in word 0", stray[0]},
		{"a bit above Last in the last word touched", stray[1]},
		{"a bit in a word past the window", stray[2]},
	} {
		if v, err := FromSnapshot(c.snap); err == nil {
			t.Errorf("%s: decoded to %v (count %d), want an error", c.name, v, v.Count())
		}
		if _, err := ProfileFromSnapshot(ProfileSnapshot{Cap: 64, Vectors: map[string]VectorSnapshot{"P": c.snap}}); err == nil {
			t.Errorf("%s: ProfileFromSnapshot accepted it", c.name)
		}
	}
	// A valid vector whose capacity is not its profile's, which is
	// DefaultCapacity when the image names none.
	for _, c := range []struct {
		name string
		prof ProfileSnapshot
	}{
		{"a 128-bit vector in a 64-bit profile", ProfileSnapshot{Cap: 64, Vectors: map[string]VectorSnapshot{"P": full}}},
		{"a 64-bit vector in a profile of no capacity", ProfileSnapshot{Vectors: map[string]VectorSnapshot{"P": New(64).Snapshot()}}},
	} {
		if _, err := ProfileFromSnapshot(c.prof); err == nil {
			t.Errorf("%s: ProfileFromSnapshot accepted it", c.name)
		}
	}
	if p, err := ProfileFromSnapshot(ProfileSnapshot{Cap: 128, Vectors: map[string]VectorSnapshot{"P": full}}); err != nil || p.Capacity() != 128 {
		t.Errorf("a 128-bit vector in a 128-bit profile: %v", err)
	}
	// The boundaries of each check are valid images.
	for _, snap := range []VectorSnapshot{
		New(64).Snapshot(),
		{First: 10, Last: 9, Cap: 64, Words: zeros64},
		{First: 10, Last: 73, Cap: 64, Words: zeros64},
		{First: 63, Last: 126, Cap: 64, Words: zeros64},
		{First: -64, Last: -1, Cap: 64, Words: zeros64},
		full,
	} {
		v, err := FromSnapshot(snap)
		if err != nil {
			t.Errorf("valid snapshot %+v rejected: %v", snap, err)
			continue
		}
		checkStored(t, v)
	}
}

// FuzzSnapshotDecode feeds FromSnapshot arbitrary images, as a BIA from
// another broker can carry: either it returns an error, or the vector it
// returns keeps the invariants the kernels assume — the window fits the
// capacity and the words, no stored bit lies outside it, Count() equals the
// per-bit Get count over the window, and AndCount runs on it without reading
// out of range.
func FuzzSnapshotDecode(f *testing.F) {
	full, overfull, zeros64, stray := snapshotFixtures()
	f.Add(full.First, full.Last, full.Cap, full.Words)
	f.Add(0, 5000, 64, zeros64) // window > capacity: the first AndCount on it panicked
	f.Add(overfull.First, overfull.Last, overfull.Cap, overfull.Words)
	f.Add(10, 5, 64, zeros64)
	f.Add(math.MinInt, math.MaxInt, 64, zeros64)
	for _, s := range stray {
		f.Add(s.First, s.Last, s.Cap, s.Words)
	}
	f.Fuzz(func(t *testing.T, first, last, capacity int, words string) {
		v, err := FromSnapshot(VectorSnapshot{First: first, Last: last, Cap: capacity, Words: words})
		if err != nil {
			return
		}
		checkStored(t, v)
		n := 0
		for i := 0; i < v.Window(); i++ {
			if v.Get(v.firstID + i) {
				n++
			}
		}
		if v.Count() != n || v.Fraction() > 1 {
			t.Fatalf("decoded %v: Count() = %d, per-bit count = %d, Fraction() = %v", v, v.Count(), n, v.Fraction())
		}
		if got := AndCount(v, v); got != n {
			t.Fatalf("decoded %v: AndCount(v, v) = %d, Count() = %d", v, got, n)
		}
	})
}
