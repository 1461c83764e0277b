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
// pack onto the brokers: the from-scratch oracle the incremental
// feasibility engine is held to. It is a plain packFirstFit — the same
// dense state as every other packing, with no checkpoint, stream or scratch
// reuse.
func feasibleFirstFit(units []*Unit, brokers []*BrokerSpec, pubs map[string]*bitvector.PublisherStats, capacity int) bool {
	_, err := packFirstFit(units, brokers, newPublisherTable(pubs, units), capacity)
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

// checkDenseAgainstReference first-fits the unit stream through the dense
// state and through refBroker side by side, comparing bit for bit: every
// unit's input load, every fits decision and intersect load on every
// broker tried, and after every placement the accepting broker's loads,
// filter count and full aggregate (publisher set, windows, words, cached
// popcounts). It returns how many units were placed.
func checkDenseAgainstReference(t *testing.T, units []*Unit, brokers []*BrokerSpec,
	pubs map[string]*bitvector.PublisherStats, capacity int) int {
	t.Helper()
	table := newPublisherTable(pubs, units)
	pk := newPack(brokers, table, capacity)
	ref := make([]*refBroker, len(brokers))
	for i, b := range brokers {
		ref[i] = &refBroker{spec: b, agg: bitvector.NewProfile(capacity)}
	}
	placed := 0
	for ui, u := range units {
		pu := compileUnit(u, table)
		uIn := bitvector.EstimateLoad(u.Profile, pubs)
		if !sameLoad(pu.in, uIn) {
			t.Fatalf("unit %d: dense input load %+v, EstimateLoad %+v", ui, pu.in, uIn)
		}
		for b := range pk.states {
			bs := &pk.states[b]
			ok, inter := bs.fits(&pu, pk.stats)
			wantOK, wantInter := ref[b].fits(u, uIn, pubs)
			if ok != wantOK || !sameLoad(inter, wantInter) {
				t.Fatalf("unit %d broker %d: dense fits = %v %+v, reference = %v %+v",
					ui, b, ok, inter, wantOK, wantInter)
			}
			if !ok {
				continue
			}
			bs.accept(&pu, inter, capacity)
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
			placed++
			break
		}
	}
	return placed
}

// denseCase generates one adversarial first-fit input from a seed: units
// whose profiles hold 1 to nPubs publishers (some absent from the
// statistics), with vectors that are empty, slid clean of bits, word-aligned
// or misaligned against each other, or wholly disjoint, at capacities that
// can exceed the aggregate's so Or has to clamp; and brokers tight enough
// that both admission criteria reject.
func denseCase(seed int64, nUnits, nPubs int, mode uint8) ([]*Unit, []*BrokerSpec, map[string]*bitvector.PublisherStats, int) {
	rng := rand.New(rand.NewSource(seed))
	caps := []int{64, 100, 128, 256, bitvector.DefaultCapacity}
	capacity := caps[int(mode)%len(caps)]
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
	units := make([]*Unit, nUnits)
	for i := range units {
		unitCap := capacity
		if mode&0x10 != 0 && rng.Intn(3) == 0 {
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
			v := bitvector.New(unitCap)
			start := 64 * rng.Intn(4) // word-aligned against the other units
			if mode&0x20 != 0 {
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
			snap.Vectors[advs[p]] = v.Snapshot()
		}
		prof, err := bitvector.ProfileFromSnapshot(snap)
		if err != nil {
			panic(err)
		}
		units[i] = &Unit{
			ID:      fmt.Sprintf("u%d", i),
			Members: []Member{{SubID: fmt.Sprintf("s%d", i)}},
			Profile: prof,
			Load:    bitvector.Load{Rate: 50 * rng.Float64(), Bandwidth: 1000 * rng.Float64()},
			Filters: 1 + rng.Intn(3),
		}
	}
	brokers := make([]*BrokerSpec, 1+rng.Intn(5))
	for i := range brokers {
		brokers[i] = &BrokerSpec{
			ID:              fmt.Sprintf("B%d", i),
			OutputBandwidth: 500 + 4000*rng.Float64(),
			Delay:           message.MatchingDelayFn{PerSub: 0.0005 * rng.Float64(), Base: 0.002 * rng.Float64()},
		}
	}
	return units, brokers, pubs, capacity
}

// TestDenseFitsMatchesReference is the property test behind the dense
// kernel: across a few hundred generated inputs the dense state and the
// map-based reference agree bit for bit after every placement.
func TestDenseFitsMatchesReference(t *testing.T) {
	placed, total := 0, 0
	for seed := int64(0); seed < 300; seed++ {
		nPubs := []int{1, 3, 12, 40}[seed%4]
		units, brokers, pubs, capacity := denseCase(seed, 40, nPubs, uint8(seed))
		placed += checkDenseAgainstReference(t, units, brokers, pubs, capacity)
		total += len(units)
	}
	if placed == 0 || placed == total {
		t.Fatalf("one-sided coverage: %d of %d units placed; the inputs must both admit and reject", placed, total)
	}
}

// FuzzDenseFitsEquivalence drives random unit streams — publishers missing
// from the statistics, empty vectors, misaligned and disjoint windows,
// capacity-clamped Or, profiles of 1 and of 40 publishers — through the
// dense first-fit state and through the retained bitvector.IntersectLoad +
// Profile.Or reference.
func FuzzDenseFitsEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(1), uint8(0))
	f.Add(int64(2), uint8(30), uint8(40), uint8(0x20))
	f.Add(int64(3), uint8(60), uint8(7), uint8(0x31))
	f.Add(int64(4), uint8(10), uint8(40), uint8(0x13))
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

	base := sortUnitsByBandwidthDesc([]*Unit{u1, u2, u3})
	for _, workers := range []int{1, 2} {
		eng := newFeasEngine(brokers, newPublisherTable(pubs, base), testCap)
		eng.reset(base, 1)
		got := eng.probe(nil, []*Unit{m}, workers)
		own := feasibleFirstFit([]*Unit{u1, u2, u3, m}, brokers, pubs, testCap)
		if got != own {
			t.Fatalf("workers=%d: probe = %v, from-scratch pack of the probe's own stream = %v", workers, got, own)
		}
		if got {
			t.Fatalf("workers=%d: probe admitted the tie; it no longer places the added unit after its bandwidth ties", workers)
		}
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
// has seen every publisher on every broker it uses, restoring it from the
// empty checkpoint and replaying the whole pool serially allocates nothing.
func TestPlacementAllocationFree(t *testing.T) {
	units, pubs := testWorkload(3, 6, 40, 10, 100)
	brokers := sortBrokersByCapacity(testBrokers(12, 30_000, stdDelay()))
	base := sortUnitsByBandwidthDesc(units)
	table := newPublisherTable(pubs, base)
	compileUnits(base, table, 1)
	eng := newFeasEngine(brokers, table, testCap)
	eng.reset(base, 1)
	pk := newPack(brokers, table, testCap)
	empty := eng.ckpts[0]
	replay := func() {
		pk.restore(empty.states)
		// lastCkpt past the pool: the measurement is of placement, not of
		// checkpoint recording.
		if !eng.replay(pk, nil, 0, len(base), len(base), nil, nil) {
			t.Fatal("pool must be feasible")
		}
	}
	replay()
	if n := testing.AllocsPerRun(20, replay); n != 0 {
		t.Errorf("steady-state serial replay allocates %v times per pool, want 0", n)
	}
}
