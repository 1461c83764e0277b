package allocation

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/greenps/greenps/internal/bitvector"
	"github.com/greenps/greenps/internal/message"
)

// checkPoolInvariants asserts what pool.commit must preserve: units strictly
// in BIN PACKING order and stream[i] the compiled form of units[i]. It ends by
// replaying the pool onto its scratch pack: the admission columns must mirror
// the broker states where the run's last probe left them, after the clear and
// after every placement, and place must land each unit where the linear scan
// over fits lands it on a pack of its own.
func checkPoolInvariants(t *testing.T, p *pool) {
	t.Helper()
	if len(p.stream) != len(p.units) {
		t.Fatalf("%d compiled units for %d units", len(p.stream), len(p.units))
	}
	for i, u := range p.units {
		if i > 0 && !unitBefore(p.units[i-1], u) {
			t.Fatalf("units %d (%s) and %d (%s) are out of BIN PACKING order", i-1, p.units[i-1].ID, i, u.ID)
		}
		got, want := &p.stream[i], compileUnit(u, p.table)
		if !sameLoad(got.load, want.load) || !sameLoad(got.in, want.in) || got.filters != want.filters ||
			!reflect.DeepEqual(got.entries, want.entries) {
			t.Fatalf("stream[%d] is not unit %s compiled", i, u.ID)
		}
	}

	checkColumns(t, p.pk, "as the last probe left the scratch pack")
	p.pk.clear()
	checkColumns(t, p.pk, "after clear")
	brokers := make([]*BrokerSpec, len(p.pk.states))
	for b := range brokers {
		brokers[b] = p.pk.states[b].spec
	}
	linear := newPack(brokers, p.table)
	for i := range p.stream {
		got, want := p.pk.place(&p.stream[i]), placeLinear(linear, &p.stream[i])
		if got != want {
			t.Fatalf("stream[%d] (unit %s): place chose broker %d, the linear scan over fits %d", i, p.units[i].ID, got, want)
		}
		checkColumns(t, p.pk, fmt.Sprintf("stream[%d] placed on %d", i, got))
	}
}

// checkLiveInvariants asserts what gifFor, dropGIF and the shard set must
// preserve: r.live holds the GIFs byKey holds, sorted by ID as strings, none
// of them dropped, and each live GIF of a sharded run in the shard its
// summary routes to.
func checkLiveInvariants(t *testing.T, r *cramRun) {
	t.Helper()
	if len(r.live) != len(r.byKey) {
		t.Fatalf("r.live holds %d GIFs, byKey %d", len(r.live), len(r.byKey))
	}
	for i, g := range r.live {
		if r.byKey[g.key] != g || g.dropped {
			t.Fatalf("r.live[%d] is %s (dropped %v), byKey holds %p for its key", i, g.id, g.dropped, r.byKey[g.key])
		}
		if i > 0 && r.live[i-1].id >= g.id {
			t.Fatalf("r.live[%d] is %s after %s: not in ID order", i, g.id, r.live[i-1].id)
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
	in := &Input{Units: units, Brokers: testBrokers(8, 10_000, stdDelay()), Publishers: pubs}
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
		p := newPool(base[:20+rng.Intn(len(base)-20)], brokers, table)
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
		if err := p.commit(p.stage(removed, added)); err != nil {
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
			t.Errorf("%T: units already allocated under another publisher table plan differently from fresh copies", mk())
		}
		if got.Fingerprint() == first.Fingerprint() {
			t.Errorf("%T: the two publisher tables give one plan; the example does not separate them", mk())
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
// otherwise, and never the same k twice. The last probe that packed is of
// the k returned (none when it returns 0): mergeLargest commits the change
// it staged for that probe.
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
				probed, lastFit := map[int]bool{}, 0
				got := searchMax(lo, hi, func(k int) bool {
					if k < lo || k > hi || probed[k] {
						t.Fatalf("[%d,%d] mask %b: probe of k=%d (probed %v)", lo, hi, mask, k, probed)
					}
					probed[k] = true
					if fits(k) {
						lastFit = k
					}
					return fits(k)
				})
				if lastFit != got {
					t.Errorf("[%d,%d] mask %b: returned %d, the last probe that packed was of %d", lo, hi, mask, got, lastFit)
				}
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

// probeCase decodes bytes into a small pool and one change of it, built for
// bandwidth ties: 2–4 publishers of 10 msgs/s and 1,000 B/s each, 3–6 units
// of 500, 1,000 or 1,500 B/s over any subset of them, and 2–3 brokers that
// hold two to four units' bandwidth and sustain two to four streams. The
// change removes any subset of the pool and adds nothing, the merge of the
// removed units or a unit of its own; the added unit's ID sorts ahead of,
// among or behind the pool's. An odd last byte makes the broker pool roomy
// and bandwidth-bound: twice the brokers, each sustaining 1,000 msgs/s,
// where the capacity certificate can answer. Missing bytes read as zero.
//
//	data[0..4]  publishers, units, brokers, broker bandwidth, broker delay
//	then        per unit: its publisher mask and its bandwidth
//	then        the removed-unit mask, the added kind (0 none, 1 merge,
//	            2 own), the added ID, and for kind 2 its mask and bandwidth
//	then        the roomy byte
func probeCase(data []byte) (units, removed, added []*Unit, brokers []*BrokerSpec, pubs map[string]*bitvector.PublisherStats) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	nPubs, nUnits, nBrokers := 2+next()%3, 3+next()%4, 2+next()%2
	brokerBW := []float64{2500, 3500, 4500}[next()%3]
	delay := message.MatchingDelayFn{Base: 1 / []float64{25, 35, 45}[next()%3]}
	pubs = make(map[string]*bitvector.PublisherStats, nPubs)
	for i := 1; i <= nPubs; i++ {
		adv := fmt.Sprintf("P%d", i)
		pubs[adv] = &bitvector.PublisherStats{AdvID: adv, Rate: 10, Bandwidth: 1000, LastSeq: 99}
	}
	unit := func(id string) *Unit {
		mask, bw := next()%(1<<nPubs), []float64{500, 1000, 1500}[next()%3]
		prof := bitvector.NewProfile(testCap)
		for i := 1; i <= nPubs; i++ {
			if mask>>(i-1)&1 == 1 {
				for seq := 0; seq < 100; seq++ {
					prof.Record(fmt.Sprintf("P%d", i), seq)
				}
			}
		}
		return &Unit{ID: id, Members: []Member{{SubID: id}}, Profile: prof,
			Load: bitvector.Load{Rate: bw / 100, Bandwidth: bw}}
	}
	for i := 1; i <= nUnits; i++ {
		units = append(units, unit(fmt.Sprintf("u%d", i)))
	}
	for i, mask := 0, next(); i < nUnits; i++ {
		if mask>>i&1 == 1 {
			removed = append(removed, units[i])
		}
	}
	kind, id := next()%3, []string{"cram-u1", "u3x", "zz"}[next()%3]
	switch {
	case kind == 1 && len(removed) > 0:
		added = []*Unit{MergeUnits(id, removed...)}
	case kind == 2:
		added = []*Unit{unit(id)}
	}
	if next()%2 == 1 {
		nBrokers, delay = 2*nBrokers, message.MatchingDelayFn{Base: 1e-3}
	}
	return units, removed, added, sortBrokersByCapacity(testBrokers(nBrokers, brokerBW, delay)), pubs
}

// checkProbeMatchesCommit stages the change on a pool of the units, probes
// it, commits it and holds the probe's answer — certified or replayed — to a
// from-scratch first-fit of the pool the commit made. It returns that answer
// and whether the certificate gave it.
func checkProbeMatchesCommit(t *testing.T, units, removed, added []*Unit, brokers []*BrokerSpec,
	pubs map[string]*bitvector.PublisherStats) (packs, certified bool) {
	t.Helper()
	p := newPool(units, brokers, newPublisherTable(pubs, append(slices.Clone(units), added...)))
	ch := p.stage(removed, added)
	got, certified := p.probe(ch)
	if err := p.commit(ch); err != nil {
		t.Fatal(err)
	}
	if want := feasibleFirstFit(p.units, brokers, pubs); got != want {
		ids := make([]string, len(p.units))
		for i, u := range p.units {
			ids[i] = u.ID
		}
		t.Fatalf("probe = %v (certified %v), from-scratch first-fit of the committed pool %v = %v", got, certified, ids, want)
	}
	return got, certified
}

// tieCase is a pool where the merged unit ties every pool unit on
// bandwidth: every unit needs 1,000 B/s of a 2,500 B/s broker (two fit,
// three do not) and every broker sustains two publishers' streams but not
// three. The pool order puts m (P1+P2) first by ID, and that packs: m opens
// B0, u1 fills it, u2 and u3 share B1. With m after its ties instead, the
// stream u1 u2 u3 m does not: u1 and u2 fill B0, u3 opens B1 with P3, and m
// would be B1's third stream. A probe that ordered ties by bandwidth alone
// would answer for that stream, not for the committed pool.
var tieCase = []byte{1, 0, 0, 0, 0, 1, 1, 2, 1, 4, 1, 0, 2, 0, 3, 1}

// probeDisagreement is a random case that separates the two tie orders the
// other way: u5 merged alone and renamed cram-u1, which sorts it ahead of
// its ties. The stream with it after its ties packs; the committed pool
// does not.
var probeDisagreement = []byte{175, 18, 93, 216, 39, 4, 87, 133, 84, 178, 10, 10, 92, 164, 23, 240, 247, 204}

// roomyTieCase is tieCase on the roomy broker pool: four brokers of 2,500
// B/s, whose pairs hold 5,000 B/s against the pool's 4,000, so the capacity
// certificate answers.
var roomyTieCase = []byte{1, 0, 0, 0, 0, 1, 1, 2, 1, 4, 1, 0, 2, 0, 3, 1, 1}

// TestProbeBandwidthTieOrder holds the probe to its commit on tieCase: a
// merged unit that ties pool units on bandwidth is probed where the commit
// files it, by ID. The replay answers there, and the certificate on
// roomyTieCase.
func TestProbeBandwidthTieOrder(t *testing.T) {
	units, removed, added, brokers, pubs := probeCase(tieCase)
	all := append(slices.Clone(units), added...)
	if len(removed) != 0 || len(added) != 1 || sortUnitsByBandwidthDesc(all)[0] != added[0] {
		t.Fatal("tieCase no longer decodes to the hand-built tie")
	}
	if packs, certified := checkProbeMatchesCommit(t, units, removed, added, brokers, pubs); !packs || certified {
		t.Fatal("the committed pool should pack on a replay; the example no longer separates the two orders")
	}
	if feasibleFirstFit(all, brokers, pubs) {
		t.Fatal("the added unit merged after its ties should not pack; the example no longer separates the two orders")
	}
	units, removed, added, brokers, pubs = probeCase(roomyTieCase)
	if packs, certified := checkProbeMatchesCommit(t, units, removed, added, brokers, pubs); !packs || !certified {
		t.Fatal("roomyTieCase should be certified")
	}
}

// TestProbeMatchesCommit holds probe to commit on 10,000 random small pools
// with bandwidth ties (probeCase), the tie case, its roomy twin and the found
// disagreement among them: the answer a probe of a staged change gives is
// the answer a from-scratch first-fit gives for the pool its commit makes,
// whether the capacity certificate gave it or a replay did. Half the random
// pools are roomy, so both kinds of answer are held to it in numbers.
func TestProbeMatchesCommit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := [][]byte{tieCase, probeDisagreement, roomyTieCase}
	for i := 0; i < 10_000; i++ {
		data := make([]byte, 24)
		rng.Read(data)
		cases = append(cases, data)
	}
	var packs [2]int
	certified := 0
	for _, data := range cases {
		units, removed, added, brokers, pubs := probeCase(data)
		ok, cert := checkProbeMatchesCommit(t, units, removed, added, brokers, pubs)
		if ok {
			packs[1]++
		} else {
			packs[0]++
		}
		if cert {
			certified++
		}
	}
	if packs[0] == 0 || packs[1] == 0 {
		t.Fatalf("one-sided cases: %d pack, %d do not", packs[1], packs[0])
	}
	// 4,534 and 5,468 at this seed.
	if replayed := len(cases) - certified; certified < 4_000 || replayed < 4_000 {
		t.Fatalf("%d probes certified and %d replayed; want at least 4,000 of each", certified, replayed)
	}
}

// certPool is a pool of units of the given bandwidths, each sinking all of
// one publisher's 1 msg/s, on four brokers of 1,000 B/s sustaining 1,000
// msgs/s, so that no rate test binds; extra adds publishers no unit sinks.
func certPool(bandwidths []float64, extra map[string]*bitvector.PublisherStats) *Input {
	pubs := maps.Clone(extra)
	if pubs == nil {
		pubs = make(map[string]*bitvector.PublisherStats)
	}
	pubs["P"] = &bitvector.PublisherStats{AdvID: "P", Rate: 1, Bandwidth: 100, LastSeq: 99}
	units := make([]*Unit, len(bandwidths))
	for i, bw := range bandwidths {
		prof := bitvector.NewProfile(testCap)
		for seq := 0; seq < 100; seq++ {
			prof.Record("P", seq)
		}
		id := fmt.Sprintf("u%d", i)
		units[i] = NewSubscriptionUnit(id, id, prof, bitvector.Load{Rate: 1, Bandwidth: bw})
	}
	return &Input{Units: units, Brokers: testBrokers(4, 1000, message.MatchingDelayFn{Base: 1e-3}), Publishers: pubs}
}

// TestProbeCertificate holds the capacity certificate to hand-built pools on
// either side of its tests: whether it answers, and that the answer is the
// from-scratch first-fit's.
func TestProbeCertificate(t *testing.T) {
	// Three units, each sinking two publishers of 1e308 msgs/s, on two
	// brokers of zero matching delay: every unit's input rate overflows to
	// +Inf, which even an unbounded limit admits once, but a broker's second
	// unit makes the rate test's Inf − Inf a NaN, so the third finds no room.
	overflow := certPool([]float64{300, 300, 300}, map[string]*bitvector.PublisherStats{
		"Q": {AdvID: "Q", Rate: 1e308, Bandwidth: 100, LastSeq: 99}})
	overflow.Publishers["P"].Rate = 1e308
	for _, u := range overflow.Units {
		for seq := 0; seq < 100; seq++ {
			u.Profile.Record("Q", seq)
		}
	}
	overflow.Brokers = testBrokers(2, 1000, message.MatchingDelayFn{})
	cases := []struct {
		name                string
		in                  *Input
		wantPacks, wantCert bool
	}{
		// Five units of C/2+ε on four brokers: one unit per broker, and the
		// fifth finds no room. Their 2,502.5 B/s exceed the pairs' 2,000
		// but not the 4,000 of all four brokers, so a certificate without
		// the factor of two would answer yes.
		{"|B|+1 units of C/2+ε", certPool([]float64{500.5, 500.5, 500.5, 500.5, 500.5}, nil), false, false},
		// 1,999.9 B/s under the pairs' 2,000, packed onto three brokers.
		{"just under the pair sum", certPool([]float64{600, 600, 400, 399.9}, nil), true, true},
		// 2,000.4 B/s: one unit per broker packs, but the pairs cannot say so.
		{"just over the pair sum", certPool([]float64{500.1, 500.1, 500.1, 500.1}, nil), true, false},
		// 1,000 B/s is under the pairs' 2,000, but no broker has room for
		// it: the widest unit must fit an empty broker.
		{"a unit as wide as a broker", certPool([]float64{1000}, nil), false, false},
		// The matching delay binds: the certificate cannot rule out a
		// refusal on rate, however roomy the bandwidth.
		{"rate-bound (stdDelay)", stdInput(t), true, false},
		// ρ·C is +Inf ≤ +Inf unless rateShare makes an overflowed rate NaN.
		{"input rate overflows to +Inf", overflow, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := tc.in
			packs, certified := checkProbeMatchesCommit(t, in.Units, nil, nil, sortBrokersByCapacity(in.Brokers), in.Publishers)
			if packs != tc.wantPacks || certified != tc.wantCert {
				t.Fatalf("probe = %v (certified %v), want %v (certified %v)", packs, certified, tc.wantPacks, tc.wantCert)
			}
		})
	}
}

// FuzzProbeMatchesCommit is TestProbeMatchesCommit's property on inputs the
// fuzzer chooses.
func FuzzProbeMatchesCommit(f *testing.F) {
	f.Add(tieCase)
	f.Add(probeDisagreement)
	f.Add(roomyTieCase)
	f.Fuzz(func(t *testing.T, data []byte) {
		units, removed, added, brokers, pubs := probeCase(data)
		checkProbeMatchesCommit(t, units, removed, added, brokers, pubs)
	})
}
