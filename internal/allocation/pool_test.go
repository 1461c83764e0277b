package allocation

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/greenps/greenps/internal/bitvector"
)

// checkPoolInvariants asserts what pool.commit must preserve: units strictly
// in BIN PACKING order, stream[i] the compiled form of units[i], and classes
// partitioning the stream exactly as a fresh classTable partitions it — equal
// compiled content, equal class, the canonical entries shared. It ends by
// replaying the pool onto its scratch pack: the admission columns must mirror
// the broker states where the run's last probe left them, after the clear and
// after every placement, and place must land each unit where the linear scan
// over fits lands it on a pack of its own.
func checkPoolInvariants(t *testing.T, p *pool) {
	t.Helper()
	if len(p.stream) != len(p.units) {
		t.Fatalf("%d compiled units for %d units", len(p.stream), len(p.units))
	}
	fresh := compileUnits(p.units, p.table, new(classTable))
	toFresh := make(map[int32]int32)
	fromFresh := make(map[int32]int32)
	canonical := make(map[int32]*bitvector.PubVector)
	for i, u := range p.units {
		if i > 0 && !unitBefore(p.units[i-1], u) {
			t.Fatalf("units %d (%s) and %d (%s) are out of BIN PACKING order", i-1, p.units[i-1].ID, i, u.ID)
		}
		got, want := &p.stream[i], compileUnit(u, p.table)
		if !sameLoad(got.load, want.load) || !sameLoad(got.in, want.in) || got.filters != want.filters ||
			!bitvector.CompiledEqual(got.entries, want.entries) {
			t.Fatalf("stream[%d] is not unit %s compiled", i, u.ID)
		}
		if got.class == 0 {
			t.Fatalf("stream[%d] (unit %s) was never interned", i, u.ID)
		}
		f := fresh[i].class
		if c, ok := toFresh[got.class]; ok && c != f {
			t.Fatalf("class %d holds two contents (unit %s)", got.class, u.ID)
		}
		if c, ok := fromFresh[f]; ok && c != got.class {
			t.Fatalf("one content in classes %d and %d (unit %s)", c, got.class, u.ID)
		}
		toFresh[got.class], fromFresh[f] = f, got.class
		if len(got.entries) > 0 {
			if first, ok := canonical[got.class]; ok && first != &got.entries[0] {
				t.Fatalf("stream[%d] (unit %s) does not share its class's entries", i, u.ID)
			}
			canonical[got.class] = &got.entries[0]
		}
	}

	checkColumns(t, p.pk, "as the last probe left the scratch pack")
	p.pk.clear()
	checkColumns(t, p.pk, "after clear")
	brokers := make([]*BrokerSpec, len(p.pk.states))
	for b := range brokers {
		brokers[b] = p.pk.states[b].spec
	}
	linear := newPack(brokers, p.table, p.pk.capacity)
	for i := range p.stream {
		got, want := p.pk.place(&p.stream[i]), placeLinear(linear, &p.stream[i])
		if got != want {
			t.Fatalf("stream[%d] (unit %s): place chose broker %d, the linear scan over fits %d", i, p.units[i].ID, got, want)
		}
		checkColumns(t, p.pk, fmt.Sprintf("stream[%d] placed on %d", i, got))
	}
}

// checkLiveInvariants asserts what gifFor, dropGIF and the shard set must
// preserve: r.live is exactly the live GIFs, sorted by ID as strings, none
// of them dropped, and each live GIF of a sharded run in the shard its
// summary routes to.
func checkLiveInvariants(t *testing.T, r *cramRun) {
	t.Helper()
	ids := make([]string, 0, len(r.gifs))
	for id := range r.gifs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	if len(ids) != len(r.live) {
		t.Fatalf("r.live holds %d GIFs, %d are live", len(r.live), len(ids))
	}
	for i, g := range r.live {
		if g.id != ids[i] || r.gifs[g.id] != g || g.dropped {
			t.Fatalf("r.live[%d] is %s (dropped %v); the sorted live IDs have %s there", i, g.id, g.dropped, ids[i])
		}
		if r.shards != nil && g.shard != routeShard(g.summary, r.shards.n) {
			t.Fatalf("GIF %s is in shard %d, its summary routes to %d", g.id, g.shard, routeShard(g.summary, r.shards.n))
		}
	}
}

// TestPoolInvariantsAfterEveryCommit walks a full CRAM run one clustering
// loop iteration at a time — a run capped at k iterations ends in the state
// the full run is in after k, commits included — and checks the pool and the
// live GIF order after each, for the poset and the exhaustive search,
// grouping on and off, and the sharded exhaustive search. Each run reaches
// at least 11 live GIFs, so ID string order (g10 before g9) is exercised.
func TestPoolInvariantsAfterEveryCommit(t *testing.T) {
	units, pubs := testWorkload(42, 5, 8, 10, 100)
	in := &Input{Units: units, Brokers: testBrokers(8, 10_000, stdDelay()), Publishers: pubs, ProfileCapacity: testCap}
	cases := []struct {
		name                   string
		exhaustive, noGrouping bool
		shards                 int
	}{
		{"poset", false, false, 0},
		{"exhaustive", true, false, 0},
		{"poset-ungrouped", false, true, 0},
		{"exhaustive-ungrouped", true, true, 0},
		{"exhaustive-sharded", true, false, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mk := func(maxIter int) *CRAM {
				return &CRAM{Metric: bitvector.MetricIOS, ExhaustiveSearch: tc.exhaustive,
					DisableGIFGrouping: tc.noGrouping, Shards: tc.shards, maxIterations: maxIter}
			}
			full := mk(0)
			if _, _, err := full.run(in); err != nil {
				t.Fatal(err)
			}
			if full.Stats().ClustersAccepted == 0 {
				t.Fatal("the run commits nothing; the workload is too easy for the test")
			}
			maxLive := 0
			for k := 1; ; k++ {
				c := mk(k)
				r, _, err := c.run(in)
				if err != nil {
					t.Fatalf("%d iterations: %v", k, err)
				}
				if (r.shards != nil) != (tc.shards > 1) {
					t.Fatalf("Shards=%d, but the run is sharded: %v", tc.shards, r.shards != nil)
				}
				checkPoolInvariants(t, r.pool)
				checkLiveInvariants(t, r)
				maxLive = max(maxLive, len(r.live))
				if c.Stats() == full.Stats() {
					break
				}
				if k > 64*(len(units)+1) {
					t.Fatal("capped runs never reach the full run's statistics")
				}
			}
			if maxLive < 11 {
				t.Fatalf("at most %d live GIFs; the run does not exercise ID string order", maxLive)
			}
		})
	}
}

// TestPoolCommitSplice checks pool.commit's one-pass splice against cutting
// the removed units and sorting the rest with the added ones, on random pools
// with 1–5 removed units anywhere and 0–4 added units placed ahead of the
// first cut, between cuts, after the last cut, at the front, at the end, and
// on a bandwidth tie with a pool unit.
func TestPoolCommitSplice(t *testing.T) {
	base, pubs := testWorkload(7, 4, 12, 10, 100)
	brokers := sortBrokersByCapacity(testBrokers(8, 18_000, stdDelay()))
	table := newPublisherTable(pubs, base)
	rng := rand.New(rand.NewSource(5))
	const (
		beforeFirst = iota
		between
		afterLast
		front
		end
		tie
		nPlaces
	)
	var seen [nPlaces]int
	for trial := 0; trial < 300; trial++ {
		p := newPool(base[:20+rng.Intn(len(base)-20)], brokers, table, testCap)
		units := p.units
		cut := rng.Perm(len(units))[:1+rng.Intn(5)]
		slices.Sort(cut)
		var removed, added []*Unit
		for _, i := range cut {
			removed = append(removed, units[i])
		}
		for j := rng.Intn(5); j > 0; j-- {
			// The target position q in the old pool, and a bandwidth that
			// lands the added unit there: between its neighbors', or a
			// neighbor's own on a tie.
			place := rng.Intn(nPlaces)
			var q int
			switch place {
			case beforeFirst:
				q = rng.Intn(cut[0] + 1)
			case between:
				if len(cut) < 2 {
					continue
				}
				c := 1 + rng.Intn(len(cut)-1)
				q = cut[c-1] + 1 + rng.Intn(cut[c]-cut[c-1])
			case afterLast:
				q = cut[len(cut)-1] + 1 + rng.Intn(len(units)-cut[len(cut)-1])
			case front:
				q = 0
			case end:
				q = len(units)
			case tie:
				q = rng.Intn(len(units))
			}
			var bw float64
			switch {
			case place == tie:
				bw = units[q].Load.Bandwidth
			case q == 0:
				bw = units[0].Load.Bandwidth + 1
			case q == len(units):
				bw = units[q-1].Load.Bandwidth / 2
			default:
				bw = (units[q-1].Load.Bandwidth + units[q].Load.Bandwidth) / 2
			}
			u := *units[rng.Intn(len(units))]
			u.ID = fmt.Sprintf("add-%d-%d", trial, j)
			u.Load.Bandwidth = bw
			added = append(added, &u)
			seen[place]++
		}
		want := sortUnitsByBandwidthDesc(append(slices.DeleteFunc(slices.Clone(units),
			func(u *Unit) bool { return slices.Contains(removed, u) }), added...))
		if err := p.commit(removed, added); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !slices.Equal(p.units, want) {
			t.Fatalf("trial %d: cut %v, %d added: the spliced pool is not the sorted modified pool", trial, cut, len(added))
		}
		checkPoolInvariants(t, p)
	}
	for place, n := range seen {
		if n == 0 {
			t.Errorf("no added unit was placed in case %d", place)
		}
	}
}

// TestUnitsReusedAcrossPublisherTables allocates one []*Unit twice, under two
// different Input.Publishers: the second run must return what fresh copies of
// the units return, whatever the first compiled them against — compiled
// forms belong to a run, not to the Unit.
func TestUnitsReusedAcrossPublisherTables(t *testing.T) {
	in := stdInput(t)
	second := make(map[string]*bitvector.PublisherStats)
	for adv, st := range in.Publishers {
		cp := *st
		cp.Rate, cp.Bandwidth = st.Rate/2, st.Bandwidth/2
		second[adv] = &cp
	}
	second["P-extra"] = &bitvector.PublisherStats{AdvID: "P-extra", Rate: 1, Bandwidth: 100}
	algs := []func() Algorithm{
		func() Algorithm { return &FBF{Seed: 3} },
		func() Algorithm { return &BinPacking{} },
		func() Algorithm { return &CRAM{Metric: bitvector.MetricIOS} },
	}
	for _, mk := range algs {
		freshUnits := make([]*Unit, len(in.Units))
		for i, u := range in.Units {
			cp := *u
			cp.Profile = u.Profile.Clone()
			freshUnits[i] = &cp
		}
		freshIn := *in
		freshIn.Units, freshIn.Publishers = freshUnits, second
		want, err := mk().Allocate(&freshIn)
		if err != nil {
			t.Fatal(err)
		}

		first, err := mk().Allocate(in)
		if err != nil {
			t.Fatal(err)
		}
		reusedIn := *in
		reusedIn.Publishers = second
		got, err := mk().Allocate(&reusedIn)
		if err != nil {
			t.Fatal(err)
		}
		if got.Fingerprint() != want.Fingerprint() {
			t.Errorf("%s: units already allocated under another publisher table plan differently from fresh copies", mk().Name())
		}
		if got.Fingerprint() == first.Fingerprint() {
			t.Errorf("%s: the two publisher tables give one plan; the example does not separate them", mk().Name())
		}
	}
}

// TestCRAMPosetRefusalIsAnError makes the poset refuse what the clustering
// loop asks of it — an insert under an ID already present, a remove of a node
// already gone, neither of which a run of its own leads to — and checks that
// the run stops with an error naming the step, not a panic, so a caller
// (croc, Reconfigure) survives it.
func TestCRAMPosetRefusalIsAnError(t *testing.T) {
	start := func(t *testing.T) *cramRun {
		r, err := (&CRAM{Metric: bitvector.MetricIOS}).start(stdInput(t))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	t.Run("insert", func(t *testing.T) {
		r := start(t)
		// Take the ID the run's next new GIF will be given, under a profile
		// no search can prefer: a publisher the workload does not have.
		foreign := bitvector.NewProfile(testCap)
		foreign.Record("elsewhere", 0)
		taken := fmt.Sprintf("g%d", r.nextGIF+1)
		if _, err := r.ps.Insert(taken, foreign, nil); err != nil {
			t.Fatal(err)
		}
		_, err := r.cluster()
		if err == nil || !strings.Contains(err.Error(), "CRAM: poset insert for new GIF "+taken) {
			t.Fatalf("cluster() = %v, want a poset insert error for %s", err, taken)
		}
	})
	t.Run("remove", func(t *testing.T) {
		r := start(t)
		for _, g := range r.live {
			if err := r.ps.Remove(g.id); err != nil {
				t.Fatal(err)
			}
		}
		_, err := r.cluster()
		if err == nil || !strings.Contains(err.Error(), "CRAM: poset remove of GIF ") {
			t.Fatalf("cluster() = %v, want a poset remove error", err)
		}
	})
}

// TestSearchMaxTopFirst runs searchMax over every feasibility pattern of
// every range lo ≤ hi ≤ 10 against the plain binary search it replaced:
// the same k when hi does not pack or the pattern is monotone, hi whenever
// hi packs, one probe then and at most one more than the binary search
// otherwise, and never the same k twice.
func TestSearchMaxTopFirst(t *testing.T) {
	binarySearch := func(lo, hi int, packs func(k int) bool) int {
		best := 0
		for lo <= hi {
			k := (lo + hi) / 2
			if packs(k) {
				best, lo = k, k+1
			} else {
				hi = k - 1
			}
		}
		return best
	}
	for lo := 1; lo <= 10; lo++ {
		for hi := lo; hi <= 10; hi++ {
			n := hi - lo + 1
			for mask := 0; mask < 1<<n; mask++ {
				fits := func(k int) bool { return mask>>(k-lo)&1 == 1 }
				monotone := mask&(mask+1) == 0 // a run of low bits: k fits up to some size
				var want, wantProbes int
				want = binarySearch(lo, hi, func(k int) bool { wantProbes++; return fits(k) })
				probed := map[int]bool{}
				got := searchMax(lo, hi, func(k int) bool {
					if k < lo || k > hi || probed[k] {
						t.Fatalf("[%d,%d] mask %b: probe of k=%d (probed %v)", lo, hi, mask, k, probed)
					}
					probed[k] = true
					return fits(k)
				})
				switch {
				case fits(hi):
					if got != hi || len(probed) != 1 {
						t.Errorf("[%d,%d] mask %b: got %d in %d probes, want %d in 1", lo, hi, mask, got, len(probed), hi)
					}
				case got != want:
					t.Errorf("[%d,%d] mask %b: got %d, binary search %d", lo, hi, mask, got, want)
				case len(probed) > wantProbes+1:
					t.Errorf("[%d,%d] mask %b: %d probes, binary search %d", lo, hi, mask, len(probed), wantProbes)
				}
				if monotone && got != want {
					t.Errorf("[%d,%d] monotone mask %b: got %d, binary search %d", lo, hi, mask, got, want)
				}
			}
		}
	}
	if got := searchMax(3, 2, func(int) bool { t.Fatal("probe of an empty range"); return true }); got != 0 {
		t.Errorf("empty range: got %d, want 0", got)
	}
}
