package allocation

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/greenps/greenps/internal/bitvector"
	"github.com/greenps/greenps/internal/message"
)

// feasibleFirstFit reports whether the units, in the given order, first-fit
// pack onto the brokers: the from-scratch oracle the pool's probes are held
// to. It is a plain packFirstFit — the same dense state as every other
// packing, with no stream or scratch reuse — over units compiled against a
// table of its own and never interned, so it never takes the run memo.
func feasibleFirstFit(units []*Unit, brokers []*BrokerSpec, pubs map[string]*bitvector.PublisherStats, capacity int) bool {
	table := newPublisherTable(pubs, units)
	compiled := make([]packUnit, len(units))
	for i, u := range units {
		compiled[i] = compileUnit(u, table)
	}
	_, err := packFirstFit(units, compiled, brokers, table, capacity)
	return err == nil
}

// refBroker is the broker state the dense kernel replaced, kept as its
// reference: the aggregate is a *bitvector.Profile, the intersect load is
// bitvector.IntersectLoad and the merge is Profile.Or, string-keyed maps
// and all.
type refBroker struct {
	spec    *BrokerSpec
	agg     *bitvector.Profile
	inLoad  bitvector.Load
	outLoad bitvector.Load
	filters int
}

func (rb *refBroker) fits(u *Unit, uIn bitvector.Load, pubs map[string]*bitvector.PublisherStats) (bool, bitvector.Load) {
	if rb.outLoad.Bandwidth+u.Load.Bandwidth >= rb.spec.OutputBandwidth {
		return false, bitvector.Load{}
	}
	inter := bitvector.IntersectLoad(rb.agg, u.Profile, pubs)
	newInRate := rb.inLoad.Rate + uIn.Rate - inter.Rate
	return newInRate <= rb.spec.Delay.MaxRate(rb.filters+u.Filters), inter
}

func (rb *refBroker) accept(u *Unit, uIn, inter bitvector.Load) {
	rb.inLoad.Rate += uIn.Rate - inter.Rate
	rb.inLoad.Bandwidth += uIn.Bandwidth - inter.Bandwidth
	rb.agg.Or(u.Profile)
	rb.outLoad = rb.outLoad.Add(u.Load)
	rb.filters += u.Filters
}

func sameLoad(a, b bitvector.Load) bool {
	return math.Float64bits(a.Rate) == math.Float64bits(b.Rate) &&
		math.Float64bits(a.Bandwidth) == math.Float64bits(b.Bandwidth)
}

// placeLinear is pack.place as it was before the admission columns: fits on
// every broker in trial order, the first that admits the unit accepting it.
// Test-only, the reference place's column scan is held to; it writes no
// column, so a pack it has driven must not be handed to place before a clear.
func placeLinear(p *pack, pu *packUnit) int {
	for b := range p.states {
		bs := &p.states[b]
		if ok, inter := bs.fits(pu, p.stats, p.ratesOrdered); ok {
			bs.accept(pu, inter, p.capacity, p.ratesOrdered)
			return b
		}
	}
	return -1
}

// checkColumns requires the pack's three admission columns to equal, bit for
// bit, the broker-state fields they copy.
func checkColumns(t *testing.T, p *pack, when string) {
	t.Helper()
	if len(p.out) != len(p.states) || len(p.limit) != len(p.states) || len(p.mark) != len(p.states) {
		t.Fatalf("%s: columns of %d, %d and %d entries for %d brokers", when, len(p.out), len(p.limit), len(p.mark), len(p.states))
	}
	for b := range p.states {
		bs := &p.states[b]
		if math.Float64bits(p.out[b]) != math.Float64bits(bs.outLoad.Bandwidth) ||
			math.Float64bits(p.limit[b]) != math.Float64bits(bs.spec.OutputBandwidth) ||
			math.Float64bits(p.mark[b]) != math.Float64bits(bs.fullBelow) {
			t.Fatalf("%s: broker %d columns out=%v limit=%v mark=%v, state out=%v limit=%v mark=%v", when, b,
				p.out[b], p.limit[b], p.mark[b], bs.outLoad.Bandwidth, bs.spec.OutputBandwidth, bs.fullBelow)
		}
	}
}

// denseCoverage tallies which paths of the kernel a differential run took.
type denseCoverage struct {
	placed int
	// fullRejects are fits calls the saturation mark decided and
	// boundRejects those left to the rate bound itself; walkRejects are rate
	// rejections the bound let through to the walk (it just did not fire);
	// memoFits are fits calls answered from the run memo, orSkips accepts
	// that left the aggregate alone.
	fullRejects, boundRejects, walkRejects, memoFits, orSkips int
	// The admission scan's corners. bwThenMark are units turned away by one
	// broker's bandwidth and then by a later broker's mark; markSpared are
	// tests of a unit without filters against a mark above its rate, which
	// must not fire; unordered are units placed under a table whose rates are
	// not ordered, where no mark may; unplaced are units no broker admits;
	// soloFits and soloRejects are FitsBroker's two answers.
	bwThenMark, markSpared, unordered, unplaced, soloFits, soloRejects int
}

func (c *denseCoverage) add(o denseCoverage) {
	c.placed += o.placed
	c.fullRejects += o.fullRejects
	c.boundRejects += o.boundRejects
	c.walkRejects += o.walkRejects
	c.memoFits += o.memoFits
	c.orSkips += o.orSkips
	c.bwThenMark += o.bwThenMark
	c.markSpared += o.markSpared
	c.unordered += o.unordered
	c.unplaced += o.unplaced
	c.soloFits += o.soloFits
	c.soloRejects += o.soloRejects
}

// checkDenseAgainstReference first-fits the unit stream through the dense
// state and through refBroker side by side, comparing bit for bit: every
// unit's input load, every fits decision on every broker tried, the
// intersect load wherever the unit is admitted (a rejected fits leaves it
// unspecified), and after every placement the accepting broker's loads,
// filter count and full aggregate (publisher set, windows, words, cached
// popcounts). The units are compiled and interned as an algorithm would
// (compileUnits), so equal contents share a class and the run memo is live;
// every few units the stream so far is replayed onto the pack after a clear,
// as a probe reuses a scratch pack, so the comparison also runs against
// states built on parked vectors.
//
// A second pack takes the same stream through place alone and must land
// every unit on the broker the linear loop over the reference chose (-1 where
// none admits it), its admission columns equal to the states they copy after
// every placement and every clear, and a replay onto its parked vectors must
// repeat the placements. Last, FitsBroker's answer for each broker on its own
// is held to the reference's.
func checkDenseAgainstReference(t *testing.T, units []*Unit, brokers []*BrokerSpec,
	pubs map[string]*bitvector.PublisherStats, capacity int) denseCoverage {
	t.Helper()
	table := newPublisherTable(pubs, units)
	compiled := compileUnits(units, table, new(classTable))
	pk := newPack(brokers, table, capacity)
	scan := newPack(brokers, table, capacity) // driven through place only
	checkColumns(t, scan, "new pack")
	landed := make([]int, 0, len(units)) // where scan put each unit so far
	ref := make([]*refBroker, len(brokers))
	for i, b := range brokers {
		ref[i] = &refBroker{spec: b, agg: bitvector.NewProfile(capacity)}
	}
	var cov denseCoverage
	for ui, u := range units {
		if ui%5 == 3 {
			pk.clear()
			for i := range compiled[:ui] {
				pk.place(&compiled[i])
			}
			scan.clear()
			checkColumns(t, scan, "after clear")
			for i := range compiled[:ui] {
				if b := scan.place(&compiled[i]); b != landed[i] {
					t.Fatalf("unit %d: a replay after clear places it on broker %d, the first pass on %d", i, b, landed[i])
				}
				checkColumns(t, scan, fmt.Sprintf("replayed unit %d", i))
			}
		}
		pu := compiled[ui]
		uIn := bitvector.EstimateLoad(u.Profile, pubs)
		if !sameLoad(pu.in, uIn) {
			t.Fatalf("unit %d: dense input load %+v, EstimateLoad %+v", ui, pu.in, uIn)
		}
		want, bwRejected := -1, false
		for b := range pk.states {
			bs := &pk.states[b]
			memo := bs.lastKnown && pu.class == bs.last
			ok, inter := bs.fits(&pu, pk.stats, pk.ratesOrdered)
			wantOK, wantInter := ref[b].fits(u, uIn, pubs)
			if ok != wantOK || ok && !sameLoad(inter, wantInter) {
				t.Fatalf("unit %d broker %d: dense fits = %v %+v, reference = %v %+v",
					ui, b, ok, inter, wantOK, wantInter)
			}
			if !pk.ratesOrdered && bs.fullBelow != 0 {
				t.Fatalf("unit %d broker %d: mark %v under unordered rates", ui, b, bs.fullBelow)
			}
			if bs.outLoad.Bandwidth+pu.load.Bandwidth < bs.spec.OutputBandwidth {
				lim := bs.spec.Delay.MaxRate(bs.filters + pu.filters)
				if pk.ratesOrdered && pu.in.Rate < bs.fullBelow && pu.filters < 1 {
					cov.markSpared++
				}
				switch {
				case pk.ratesOrdered && pu.in.Rate < bs.fullBelow && pu.filters >= 1:
					cov.fullRejects++
					if bwRejected {
						cov.bwThenMark++
						bwRejected = false // once per unit
					}
				case memo:
					cov.memoFits++
				case pk.ratesOrdered && bs.inLoad.Rate+pu.in.Rate-pu.in.Rate > lim:
					cov.boundRejects++
				case !ok:
					cov.walkRejects++
				}
			} else {
				bwRejected = true
			}
			if !ok {
				continue
			}
			if pu.class == bs.last {
				cov.orSkips++
			}
			bs.accept(&pu, inter, capacity, pk.ratesOrdered)
			ref[b].accept(u, uIn, wantInter)
			if !sameLoad(bs.inLoad, ref[b].inLoad) || !sameLoad(bs.outLoad, ref[b].outLoad) ||
				bs.filters != ref[b].filters {
				t.Fatalf("unit %d broker %d: dense state in=%+v out=%+v f=%d, reference in=%+v out=%+v f=%d",
					ui, b, bs.inLoad, bs.outLoad, bs.filters, ref[b].inLoad, ref[b].outLoad, ref[b].filters)
			}
			agg := make([]*bitvector.Vector, len(bs.agg))
			for p, v := range bs.agg {
				if v != nil {
					agg[p] = v.Clone()
				}
			}
			got := table.Profile(agg, capacity)
			if !reflect.DeepEqual(got.Snapshot(), ref[b].agg.Snapshot()) {
				t.Fatalf("unit %d broker %d: dense aggregate differs from Profile.Or reference:\n got %+v\nwant %+v",
					ui, b, got.Snapshot(), ref[b].agg.Snapshot())
			}
			for _, adv := range got.Publishers() {
				if g, w := got.Vector(adv).Count(), ref[b].agg.Vector(adv).Count(); g != w {
					t.Fatalf("unit %d broker %d publisher %s: cached count %d, reference %d", ui, b, adv, g, w)
				}
			}
			cov.placed++
			want = b
			break
		}
		if want < 0 {
			cov.unplaced++
		} else if !pk.ratesOrdered {
			cov.unordered++
		}
		got := scan.place(&compiled[ui])
		if got != want {
			t.Fatalf("unit %d: place chose broker %d, the linear scan over the reference broker %d", ui, got, want)
		}
		checkColumns(t, scan, fmt.Sprintf("unit %d placed on %d", ui, got))
		landed = append(landed, got)
	}

	for _, b := range brokers {
		solo := &refBroker{spec: b, agg: bitvector.NewProfile(capacity)}
		want := true
		for _, u := range units {
			uIn := bitvector.EstimateLoad(u.Profile, pubs)
			ok, inter := solo.fits(u, uIn, pubs)
			if !ok {
				want = false
				break
			}
			solo.accept(u, uIn, inter)
		}
		if got := FitsBroker(b, units, pubs, capacity); got != want {
			t.Fatalf("FitsBroker(%s) = %v, the reference broker hosting the units in order = %v", b.ID, got, want)
		}
		if want {
			cov.soloFits++
		} else {
			cov.soloRejects++
		}
	}
	return cov
}

// Mode bits of denseCase beyond the capacity choice in the low three bits.
const (
	denseEdges      = 0x08 // the admission scan's corners, see denseCase
	denseMixedCaps  = 0x10 // units of differing vector capacities: Or clamps
	denseMisaligned = 0x20 // window starts off the word grid
	denseRepeats    = 0x40 // runs of equal contents
	denseSaturated  = 0x80 // brokers the rate criterion fills first
)

// denseCase generates one adversarial first-fit input from a seed: units
// whose profiles hold 1 to nPubs publishers (some absent from the
// statistics), with vectors that are empty, slid clean of bits, word-aligned
// or misaligned against each other, or wholly disjoint, at capacities that
// can exceed the aggregate's so Or has to clamp; and brokers tight enough
// that both admission criteria reject.
//
// denseRepeats makes the stream runs of 2–6 units of one content, with equal
// or differing loads and filter counts, some runs broken by a unit of other
// content, and some members carrying the same set bits in a longer window —
// an equal fingerprint, another class: interning by fingerprint or by hash
// alone would hand them the wrong intersect load. denseSaturated gives the
// brokers ample bandwidth and a steep matching-delay slope, so that the rate
// criterion rejects both by the bound and — where the overlap with the
// aggregate decides — only after the walk; one case in four of it carries a
// negative publisher rate, which must switch the bound off.
//
// denseEdges aims at what place's column scan must get right: one unit in
// four occupies no filter, so a saturated broker's mark may not turn it away;
// the first broker keeps a narrow pipe when denseSaturated widens the others,
// so a unit is turned away by bandwidth and then by a mark; and one case in
// four carries a NaN publisher rate, under which no mark may fire.
func denseCase(seed int64, nUnits, nPubs int, mode uint8) ([]*Unit, []*BrokerSpec, map[string]*bitvector.PublisherStats, int) {
	rng := rand.New(rand.NewSource(seed))
	caps := []int{64, 100, 128, 256, bitvector.DefaultCapacity}
	capacity := caps[int(mode&0x07)%len(caps)]
	pubs := make(map[string]*bitvector.PublisherStats)
	advs := make([]string, nPubs)
	for p := range advs {
		// Unpadded numbers: sorted advertisement order differs from
		// generation order, as it does for real IDs.
		advs[p] = fmt.Sprintf("adv%d", p)
		if rng.Intn(8) != 0 { // 1 in 8 publishers has no statistics
			pubs[advs[p]] = &bitvector.PublisherStats{
				AdvID: advs[p], Rate: 1 + 99*rng.Float64(), Bandwidth: 100 + 9900*rng.Float64(),
			}
		}
	}
	if st := pubs[advs[0]]; st != nil {
		switch {
		case mode&denseSaturated != 0 && seed%4 == 0:
			st.Rate = -st.Rate
		case mode&denseEdges != 0 && seed%4 == 1:
			st.Rate = math.NaN()
		}
	}
	newVector := func(unitCap int) *bitvector.Vector {
		v := bitvector.New(unitCap)
		start := 64 * rng.Intn(4) // word-aligned against the other units
		if mode&denseMisaligned != 0 {
			start = rng.Intn(300) // misaligned
		}
		if rng.Intn(6) == 0 {
			start += 5000 // disjoint from everything near the origin
		}
		width := 1 + rng.Intn(2*unitCap) // past capacity: the window slides
		switch rng.Intn(8) {
		case 0: // never recorded: empty window
		case 1: // recorded, then slid out: a window without a set bit
			v.Set(start)
			v.Observe(start + 3*unitCap)
		default:
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
	newContent := func() bitvector.ProfileSnapshot {
		unitCap := capacity
		if mode&denseMixedCaps != 0 && rng.Intn(3) == 0 {
			unitCap = caps[rng.Intn(len(caps))]
		}
		snap := bitvector.ProfileSnapshot{Cap: unitCap, Vectors: make(map[string]bitvector.VectorSnapshot)}
		k := 1 + rng.Intn(nPubs)
		switch rng.Intn(4) {
		case 0:
			k = 1
		case 1:
			k = nPubs
		}
		for _, p := range rng.Perm(nPubs)[:k] {
			snap.Vectors[advs[p]] = newVector(unitCap).Snapshot()
		}
		return snap
	}
	// widened is the content with every window that has room observed a few
	// IDs further: the same set bits, so the same fingerprint, over a longer
	// window.
	widened := func(snap bitvector.ProfileSnapshot) bitvector.ProfileSnapshot {
		out := bitvector.ProfileSnapshot{Cap: snap.Cap, Vectors: make(map[string]bitvector.VectorSnapshot)}
		for adv, vs := range snap.Vectors {
			v, err := bitvector.FromSnapshot(vs)
			if err != nil {
				panic(err)
			}
			if w := v.Window(); w > 0 && w+3 <= v.Capacity() {
				v.Observe(v.LastID() + 3)
			}
			out.Vectors[adv] = v.Snapshot()
		}
		return out
	}
	newLoad := func() (bitvector.Load, int) {
		load, filters := bitvector.Load{Rate: 50 * rng.Float64(), Bandwidth: 1000 * rng.Float64()}, 1+rng.Intn(3)
		if mode&denseEdges != 0 && rng.Intn(4) == 0 {
			filters = 0
		}
		return load, filters
	}

	units := make([]*Unit, nUnits)
	var run bitvector.ProfileSnapshot // content of the run in progress
	var runLoad bitvector.Load
	var runFilters, runLeft int
	for i := range units {
		var snap bitvector.ProfileSnapshot
		load, filters := newLoad()
		switch {
		case mode&denseRepeats == 0:
			snap = newContent()
		case runLeft == 0:
			run, runLoad, runFilters, runLeft = newContent(), load, filters, 1+rng.Intn(5)
			snap = run
		default:
			runLeft--
			switch rng.Intn(8) {
			case 0: // a stranger breaks the run, which then resumes
				snap = newContent()
				runLeft++
			case 1:
				snap = widened(run)
			default:
				snap = run
				if rng.Intn(2) == 0 {
					load, filters = runLoad, runFilters
				}
			}
		}
		prof, err := bitvector.ProfileFromSnapshot(snap)
		if err != nil {
			panic(err)
		}
		units[i] = &Unit{
			ID:      fmt.Sprintf("u%d", i),
			Members: []Member{{SubID: fmt.Sprintf("s%d", i)}},
			Profile: prof,
			Load:    load,
			Filters: filters,
		}
	}
	brokers := make([]*BrokerSpec, 1+rng.Intn(5))
	for i := range brokers {
		brokers[i] = &BrokerSpec{
			ID:              fmt.Sprintf("B%d", i),
			OutputBandwidth: 500 + 4000*rng.Float64(),
			Delay:           message.MatchingDelayFn{PerSub: 0.0005 * rng.Float64(), Base: 0.002 * rng.Float64()},
		}
		if mode&denseSaturated != 0 {
			if mode&denseEdges == 0 || i > 0 {
				brokers[i].OutputBandwidth *= 20
			}
			brokers[i].Delay.PerSub = 0.0005 + 0.004*rng.Float64()
		}
	}
	return units, brokers, pubs, capacity
}

// admissionSeeds are the fuzz seeds aimed at place's column scan, each with
// the corner of it the generated case must reach.
var admissionSeeds = []struct {
	name                string
	seed                int64
	nUnits, nPubs, mode uint8
	reached             func(denseCoverage) int
}{
	{"a broker out of bandwidth, then a saturated one", 33, 63, 5, denseEdges | denseSaturated,
		func(c denseCoverage) int { return c.bwThenMark }},
	{"units without filters against saturated brokers", 35, 63, 0, denseEdges | denseSaturated | denseRepeats | 2,
		func(c denseCoverage) int { return c.markSpared }},
	{"a NaN publisher rate: no mark may fire", 37, 63, 2, denseEdges | denseSaturated,
		func(c denseCoverage) int { return c.unordered }},
	{"one broker, which FitsBroker fills", 33, 2, 5, denseEdges | denseSaturated,
		func(c denseCoverage) int { return c.soloFits }},
}

// TestDenseFitsMatchesReference is the property test behind the dense
// kernel: across a few hundred generated inputs the dense state and the
// map-based reference agree bit for bit after every placement, and the
// inputs reach every path of the kernel — the walk, the saturation mark, the
// rate bound firing and just not firing, the run memo and the skipped OR.
func TestDenseFitsMatchesReference(t *testing.T) {
	var cov denseCoverage
	total := 0
	for seed := int64(0); seed < 400; seed++ {
		nPubs := []int{1, 3, 12, 40}[seed%4]
		// The low six mode bits cycle with the seed; the two new modes take
		// turns over the upper hundred.
		mode := uint8(seed) & 0x3f
		if seed >= 300 {
			mode |= []uint8{denseRepeats, denseSaturated, denseRepeats | denseSaturated}[seed%3]
		}
		units, brokers, pubs, capacity := denseCase(seed, 40, nPubs, mode)
		cov.add(checkDenseAgainstReference(t, units, brokers, pubs, capacity))
		total += len(units)
	}
	for _, as := range admissionSeeds {
		units, brokers, pubs, capacity := denseCase(as.seed, 1+int(as.nUnits)%64, 1+int(as.nPubs)%40, as.mode)
		c := checkDenseAgainstReference(t, units, brokers, pubs, capacity)
		if as.reached(c) == 0 {
			t.Errorf("fuzz seed %q no longer reaches its corner: %+v", as.name, c)
		}
		cov.add(c)
		total += len(units)
	}
	if cov.placed == 0 || cov.placed == total {
		t.Fatalf("one-sided coverage: %d of %d units placed; the inputs must both admit and reject", cov.placed, total)
	}
	if cov.fullRejects == 0 || cov.boundRejects == 0 || cov.walkRejects == 0 || cov.memoFits == 0 || cov.orSkips == 0 ||
		cov.unplaced == 0 || cov.soloRejects == 0 {
		t.Fatalf("a kernel path went unexercised: %+v", cov)
	}
	t.Logf("coverage over %d units: %+v", total, cov)
}

// TestSaturationImpliesBound checks saturation's claim numerically: whenever
// a unit's input rate q is below saturation(rate, lim), the rate bound
// fl(fl(rate+q) − q) is above lim — across magnitudes from 1e-3 to 1e12,
// limits a few ulps to a few percent under the rate, and q both tiny and
// right under the threshold, where the two roundings cost the most.
func TestSaturationImpliesBound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	fired := 0
	for trial := 0; trial < 200000; trial++ {
		rate := math.Pow(10, -3+15*rng.Float64())
		lim := rate * (1 - math.Pow(10, -16*rng.Float64()))
		if trial%7 == 0 {
			lim = math.Nextafter(rate, 0) // one ulp under: never saturated
		}
		below := saturation(rate, lim)
		if !(below > 0) {
			continue
		}
		fired++
		for _, q := range []float64{0, rate * rng.Float64(), below * rng.Float64(), math.Nextafter(below, 0)} {
			if !(q < below) {
				continue
			}
			if !(rate+q-q > lim) {
				t.Fatalf("rate %v lim %v: q %v is below saturation %v, but the bound %v does not exceed lim",
					rate, lim, q, below, rate+q-q)
			}
		}
	}
	if fired == 0 {
		t.Fatal("no trial was saturated")
	}
}

// TestInternIsExactContent pins what a class is: equal bits in equal
// windows. Two profiles with one fingerprint but different window ends must
// not share a class — their intersect loads divide by different widths —
// while a clone must.
func TestInternIsExactContent(t *testing.T) {
	pubs := map[string]*bitvector.PublisherStats{"P": {AdvID: "P", Rate: 10, Bandwidth: 1000}}
	unit := func(id string, last int) *Unit {
		prof := bitvector.NewProfile(testCap)
		for seq := 0; seq < 50; seq++ {
			prof.Record("P", seq)
		}
		prof.Sync(map[string]*bitvector.PublisherStats{"P": {AdvID: "P", LastSeq: last}})
		return &Unit{ID: id, Members: []Member{{SubID: id}}, Profile: prof, Filters: 1}
	}
	a, b, c := unit("a", 99), unit("b", 99), unit("c", 149)
	if a.Profile.FingerprintKey() != c.Profile.FingerprintKey() {
		t.Fatal("the example needs equal fingerprints")
	}
	units := []*Unit{a, b, c}
	compiled := compileUnits(units, newPublisherTable(pubs, units), new(classTable))
	pa, pb, pc := compiled[0], compiled[1], compiled[2]
	if pa.class == 0 || pa.class != pb.class {
		t.Fatalf("equal contents got classes %d and %d", pa.class, pb.class)
	}
	if &pa.entries[0] != &pb.entries[0] {
		t.Fatal("units of one class must share the canonical entries")
	}
	if pc.class == pa.class {
		t.Fatal("a longer window with the same bits was interned into the same class")
	}
}

// FuzzDenseFitsEquivalence drives random unit streams — publishers missing
// from the statistics, empty vectors, misaligned and disjoint windows,
// capacity-clamped Or, profiles of 1 and of 40 publishers, runs of repeated
// contents, rate-saturated brokers, units without filters, unordered rates —
// through the dense first-fit state and through the retained
// bitvector.IntersectLoad + Profile.Or reference, with place's column scan
// held to the linear loop over that reference and its columns to the states
// they copy (checkDenseAgainstReference).
func FuzzDenseFitsEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(1), uint8(0))
	f.Add(int64(2), uint8(30), uint8(40), uint8(0x20))
	f.Add(int64(3), uint8(60), uint8(7), uint8(0x31))
	f.Add(int64(4), uint8(10), uint8(40), uint8(0x13))
	f.Add(int64(5), uint8(63), uint8(2), uint8(denseRepeats))
	f.Add(int64(6), uint8(63), uint8(11), uint8(denseRepeats|denseMisaligned|denseMixedCaps|3))
	f.Add(int64(7), uint8(63), uint8(5), uint8(denseSaturated))
	f.Add(int64(8), uint8(63), uint8(2), uint8(denseSaturated|denseRepeats|4))
	for _, as := range admissionSeeds {
		f.Add(as.seed, as.nUnits, as.nPubs, as.mode)
	}
	f.Fuzz(func(t *testing.T, seed int64, nUnits, nPubs, mode uint8) {
		units, brokers, pubs, capacity := denseCase(seed, 1+int(nUnits)%64, 1+int(nPubs)%40, mode)
		checkDenseAgainstReference(t, units, brokers, pubs, capacity)
	})
}

// TestProbeBandwidthTieOrder pins how a probe orders an added unit whose
// bandwidth ties with base units: after all of them, not by ID as the
// committed pool (unitBefore) would. The two orders can answer
// differently, and a probe answers for its own. Here every unit needs
// 1,000 B/s of a 2,500 B/s broker (two fit, three do not) and every broker
// sustains two publishers' streams but not three:
//
//	probe's stream u1 u2 u3 m: u1,u2 fill B0; u3 opens B1 with P3; m (P1+P2)
//	                           would be B1's third stream — infeasible.
//	pool order     m u1 u2 u3: m opens B0 with P1+P2, u1 fills it; u2,u3
//	                           share B1 — feasible.
func TestProbeBandwidthTieOrder(t *testing.T) {
	pubs := make(map[string]*bitvector.PublisherStats)
	for _, adv := range []string{"P1", "P2", "P3"} {
		pubs[adv] = &bitvector.PublisherStats{AdvID: adv, Rate: 10, Bandwidth: 1000, LastSeq: 99}
	}
	unit := func(id string, advs ...string) *Unit {
		prof := bitvector.NewProfile(testCap)
		for _, adv := range advs {
			for seq := 0; seq < 100; seq++ {
				prof.Record(adv, seq)
			}
		}
		return &Unit{ID: id, Members: []Member{{SubID: id}}, Profile: prof,
			Load: bitvector.Load{Rate: 10, Bandwidth: 1000}, Filters: 1}
	}
	u1, u2, u3 := unit("u1", "P1"), unit("u2", "P2"), unit("u3", "P3")
	m := unit("cram-u1", "P1", "P2") // sorts ahead of u1..u3 by ID, as committed merges do
	brokers := testBrokers(2, 2500, message.MatchingDelayFn{Base: 1.0 / 25})

	base := []*Unit{u1, u2, u3}
	got := newPool(base, brokers, newPublisherTable(pubs, base), testCap).probe(nil, []*Unit{m})
	own := feasibleFirstFit([]*Unit{u1, u2, u3, m}, brokers, pubs, testCap)
	if got != own {
		t.Fatalf("probe = %v, from-scratch pack of the probe's own stream = %v", got, own)
	}
	if got {
		t.Fatal("probe admitted the tie; it no longer places the added unit after its bandwidth ties")
	}
	committed := sortUnitsByBandwidthDesc([]*Unit{u1, u2, u3, m})
	if committed[0] != m {
		t.Fatalf("pool order no longer breaks the tie by ID: %s first", committed[0].ID)
	}
	if !feasibleFirstFit(committed, brokers, pubs, testCap) {
		t.Fatal("the pool order of the same units should pack; the example no longer separates the two orders")
	}
}

// TestPlacementAllocationFree pins the //greenvet:hotpath declarations on
// fits, accept, place and replay with a measurement: once a scratch pack
// has seen every publisher on every broker it uses, clearing it and
// replaying the whole pool allocates nothing.
// Two in five of the pool's subscriptions sink everything their publisher
// sends, so the stream has runs of one class and the replay goes through
// the run memo and the skipped OR as well as the walk.
func TestPlacementAllocationFree(t *testing.T) {
	units, pubs := testWorkload(3, 6, 40, 10, 100)
	brokers := sortBrokersByCapacity(testBrokers(12, 30_000, stdDelay()))
	p := newPool(units, brokers, newPublisherTable(pubs, units), testCap)
	replay := func() {
		p.pk.clear()
		if !p.replay(nil, nil) {
			t.Fatal("pool must be feasible")
		}
	}
	memo := false
	for i := range p.stream {
		if b := p.pk.place(&p.stream[i]); b >= 0 && p.pk.states[b].lastKnown {
			memo = true
		}
	}
	replay()
	if !memo || len(p.classes.entries) >= len(units) {
		t.Fatalf("%d classes over %d units, memo reached: %v — the replay does not cover the run memo",
			len(p.classes.entries), len(units), memo)
	}
	if n := testing.AllocsPerRun(20, replay); n != 0 {
		t.Errorf("steady-state replay allocates %v times per pool, want 0", n)
	}
}
