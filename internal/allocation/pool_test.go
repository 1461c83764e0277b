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
// in BIN PACKING order and stream[i] the compiled form of units[i], its lone
// mark included. It ends by replaying the pool onto its scratch pack: the
// pack must be empty where the run's last probe left it, the admission
// columns must mirror the broker states after every placement, and place
// must land each unit where the linear scan over fits lands it on a pack of
// its own.
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
		want.lone = !(want.in.Rate <= p.worst.MaxRate(int(want.filters)))
		if !sameLoad(got.load, want.load) || !sameLoad(got.in, want.in) || got.filters != want.filters ||
			got.lone != want.lone || !reflect.DeepEqual(got.entries, want.entries) {
			t.Fatalf("stream[%d] is not unit %s compiled", i, u.ID)
		}
	}

	if p.pk.opened != 0 {
		t.Fatalf("the last probe left %d brokers open on the scratch pack", p.pk.opened)
	}
	checkColumns(t, p.pk, "as the last probe left the scratch pack")
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
	p.pk.clear() // a probe expects the pack empty
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
// among or behind the pool's. The mode byte picks the broker pool, and mode 2
// adds units too:
//
//	0  the tight one above;
//	1  roomy and bandwidth-bound: twice the brokers, each sustaining 1,000
//	   msgs/s, where the capacity certificate answers from test (a);
//	2  rate-bound: 30–80 more units of 50–200 B/s, each sinking one or two
//	   of three more publishers of 1 msg/s, on 4–12 brokers of half to one
//	   and a half times the tight bandwidth, whose matching delays (Base
//	   1/45–1/25 s, PerSub 0.1–0.4 ms) differ broker by broker. Test (a)
//	   fails, the decoded units can be lone, and the certificate answers by
//	   counting rate refusals, mostly part-way through the replay. Two seed
//	   bytes draw it.
//
// Missing bytes read as zero.
//
//	data[0..4]  publishers, units, brokers, broker bandwidth, broker delay
//	then        per unit: its publisher mask and its bandwidth
//	then        the removed-unit mask, the added kind (0 none, 1 merge,
//	            2 own), the added ID, and for kind 2 its mask and bandwidth
//	then        the mode byte, and in mode 2 the two seed bytes
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
	switch next() % 3 {
	case 0:
		brokers = testBrokers(nBrokers, brokerBW, delay)
	case 1:
		brokers = testBrokers(2*nBrokers, brokerBW, message.MatchingDelayFn{Base: 1e-3})
	case 2:
		rng := rand.New(rand.NewSource(int64(next() | next()<<8)))
		for i := 1; i <= 3; i++ {
			adv := fmt.Sprintf("L%d", i)
			pubs[adv] = &bitvector.PublisherStats{AdvID: adv, Rate: 1, Bandwidth: 100, LastSeq: 99}
		}
		for i := 30 + rng.Intn(51); i > 0; i-- {
			prof := bitvector.NewProfile(testCap)
			for _, l := range []int{1 + rng.Intn(3), 1 + rng.Intn(3)} {
				for seq := 0; seq < 100; seq++ {
					prof.Record(fmt.Sprintf("L%d", l), seq)
				}
			}
			id, bw := fmt.Sprintf("v%02d", i), []float64{50, 100, 200}[rng.Intn(3)]
			units = append(units, &Unit{ID: id, Members: []Member{{SubID: id}}, Profile: prof,
				Load: bitvector.Load{Rate: bw / 100, Bandwidth: bw}})
		}
		brokers = testBrokers(4+rng.Intn(9), 0, message.MatchingDelayFn{})
		for _, b := range brokers {
			b.OutputBandwidth = brokerBW * float64(1+rng.Intn(3)) / 2
			b.Delay = message.MatchingDelayFn{PerSub: float64(1+rng.Intn(4)) * 1e-4, Base: 1 / []float64{25, 35, 45}[rng.Intn(3)]}
		}
	}
	return units, removed, added, sortBrokersByCapacity(brokers), pubs
}

// probeOutcome is where a probe's answer came from.
type probeOutcome int

const (
	atHead     probeOutcome = iota // the capacity certificate, before any placement
	cutShort                       // the certificate, part-way through the replay
	fullReplay                     // the replay: the whole stream placed, or a unit no broker admits
)

func (o probeOutcome) String() string {
	return [...]string{"certified at the head", "cut short", "full replay"}[o]
}

// checkProbeMatchesCommit stages the change on a pool of the units, probes
// it, commits it and holds the probe's answer — certified or replayed — to a
// from-scratch first-fit of the pool the commit made. It returns that answer
// and where it came from.
func checkProbeMatchesCommit(t *testing.T, units, removed, added []*Unit, brokers []*BrokerSpec,
	pubs map[string]*bitvector.PublisherStats) (packs bool, how probeOutcome) {
	t.Helper()
	p := newPool(units, brokers, newPublisherTable(pubs, append(slices.Clone(units), added...)))
	ch := p.stage(removed, added)
	got, placed := p.probe(ch)
	switch n := len(p.stream) - len(ch.cut) + len(ch.compiled); {
	case placed == 0:
		how = atHead
	case got && placed < n:
		how = cutShort
	default:
		how = fullReplay
	}
	if err := p.commit(ch); err != nil {
		t.Fatal(err)
	}
	if want := feasibleFirstFit(p.units, brokers, pubs); got != want {
		ids := make([]string, len(p.units))
		for i, u := range p.units {
			ids[i] = u.ID
		}
		t.Fatalf("probe = %v (%v after %d placements), from-scratch first-fit of the committed pool %v = %v", got, how, placed, ids, want)
	}
	return got, how
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
	if packs, how := checkProbeMatchesCommit(t, units, removed, added, brokers, pubs); !packs || how != fullReplay {
		t.Fatal("the committed pool should pack on a full replay; the example no longer separates the two orders")
	}
	if feasibleFirstFit(all, brokers, pubs) {
		t.Fatal("the added unit merged after its ties should not pack; the example no longer separates the two orders")
	}
	units, removed, added, brokers, pubs = probeCase(roomyTieCase)
	if packs, how := checkProbeMatchesCommit(t, units, removed, added, brokers, pubs); !packs || how != atHead {
		t.Fatal("roomyTieCase should be certified at the head")
	}
}

// TestProbeMatchesCommit holds probe to commit on 10,000 random small pools
// with bandwidth ties (probeCase), the tie case, its roomy twin and the found
// disagreement among them: the answer a probe of a staged change gives is
// the answer a from-scratch first-fit gives for the pool its commit makes,
// whether the capacity certificate gave it at the head of the stream or
// part-way through the replay, or the replay did. The random pools are
// tight, roomy and rate-bound in about equal parts, so every kind of answer
// is held to it in numbers.
func TestProbeMatchesCommit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := [][]byte{tieCase, probeDisagreement, roomyTieCase}
	for i := 0; i < 10_000; i++ {
		data := make([]byte, 24)
		rng.Read(data)
		cases = append(cases, data)
	}
	var packs [2]int
	var outcomes [3]int
	for _, data := range cases {
		units, removed, added, brokers, pubs := probeCase(data)
		ok, how := checkProbeMatchesCommit(t, units, removed, added, brokers, pubs)
		if ok {
			packs[1]++
		} else {
			packs[0]++
		}
		outcomes[how]++
	}
	if packs[0] == 0 || packs[1] == 0 {
		t.Fatalf("one-sided cases: %d pack, %d do not", packs[1], packs[0])
	}
	// 4,016, 2,362 and 3,625 at this seed.
	for how, floor := range [...]int{3_500, 2_000, 3_000} {
		if outcomes[how] < floor {
			t.Errorf("%d probes %v, want at least %d (outcomes %v)", outcomes[how], probeOutcome(how), floor, outcomes)
		}
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

// rateUnits are n units of one bandwidth, each sinking every message of the
// publishers its pubs string names, one letter each.
type rateUnits struct {
	n    int
	bw   float64
	pubs string
}

// ratePool is a pool for the certificate's rate tests: publishers P and Q of
// 1 msg/s and R of 20 msgs/s, the given units and the given brokers.
func ratePool(brokers []*BrokerSpec, specs ...rateUnits) *Input {
	pubs := map[string]*bitvector.PublisherStats{
		"P": {AdvID: "P", Rate: 1, Bandwidth: 100, LastSeq: 99},
		"Q": {AdvID: "Q", Rate: 1, Bandwidth: 100, LastSeq: 99},
		"R": {AdvID: "R", Rate: 20, Bandwidth: 2000, LastSeq: 99},
	}
	var units []*Unit
	for _, sp := range specs {
		for range sp.n {
			prof := bitvector.NewProfile(testCap)
			for _, adv := range sp.pubs {
				for seq := 0; seq < 100; seq++ {
					prof.Record(string(adv), seq)
				}
			}
			id := fmt.Sprintf("u%02d", len(units))
			units = append(units, NewSubscriptionUnit(id, id, prof, bitvector.Load{Rate: 1, Bandwidth: sp.bw}))
		}
	}
	return &Input{Units: units, Brokers: brokers, Publishers: pubs}
}

// mixedBrokers returns one broker per capacity, with the matching delays
// given position for position.
func mixedBrokers(capacities []float64, delays []message.MatchingDelayFn) []*BrokerSpec {
	out := testBrokers(len(capacities), 0, message.MatchingDelayFn{})
	for i, b := range out {
		b.OutputBandwidth, b.Delay = capacities[i], delays[i]
	}
	return out
}

// TestProbeCertificate holds the capacity certificate to hand-built pools on
// either side of its tests: where the answer came from, and that it is the
// from-scratch first-fit's. The rate-bound pools' brokers sustain 10 msgs/s
// (Base 0.1 s) unless a case says otherwise, so test (a) fails on every one
// of them and the certificate counts rate refusals.
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
	slow := message.MatchingDelayFn{Base: 0.1}
	cases := []struct {
		name      string
		in        *Input
		wantPacks bool
		wantHow   probeOutcome
	}{
		// Five units of C/2+ε on four brokers: one unit per broker, and the
		// fifth finds no room. Their 2,502.5 B/s exceed the pairs' 2,000
		// but not the 4,000 of all four brokers, so a certificate without
		// the factor of two would answer yes.
		{"|B|+1 units of C/2+ε", certPool([]float64{500.5, 500.5, 500.5, 500.5, 500.5}, nil), false, fullReplay},
		// 1,999.9 B/s under the pairs' 2,000, packed onto three brokers.
		{"just under the pair sum", certPool([]float64{600, 600, 400, 399.9}, nil), true, atHead},
		// 2,000.4 B/s: one unit per broker packs, but the pairs cannot say so.
		{"just over the pair sum", certPool([]float64{500.1, 500.1, 500.1, 500.1}, nil), true, fullReplay},
		// 1,000 B/s is under the pairs' 2,000, but no broker has room for
		// it: the widest unit must fit an empty broker.
		{"a unit as wide as a broker", certPool([]float64{1000}, nil), false, fullReplay},
		// The matching delay binds. At the head, the 200 units' input rate
		// and filters let rate refusals have opened all ten pairs; part-way
		// through, what is still to come bounds them to fewer than the
		// unopened brokers leave over.
		{"rate-bound (stdDelay)", stdInput(t), true, cutShort},
		// ρ·C is +Inf ≤ +Inf unless rateShare makes an overflowed rate NaN,
		// and the counting bound's +Inf·0 is a NaN.
		{"input rate overflows to +Inf", overflow, false, fullReplay},
		// 900 B/s sinking 19 msgs/s on four brokers of 1,000 B/s: a pair
		// opened on a rate refusal holds more than 10 msgs/s, so at most one
		// of the two pairs is such (1² < 19·0.1·1), and the other, the
		// smaller at 1,000 B/s, holds more than the pool.
		{"the counting bound certifies", ratePool(testBrokers(4, 1000, slow), rateUnits{9, 90, "PQ"}, rateUnits{1, 90, "P"}),
			true, atHead},
		// 20 msgs/s: now both pairs may have opened on rate (2² < 20·0.1·2
		// up to the slack), no pair is left to hold the pool and the
		// certificate cannot answer, though one broker hosts every unit.
		{"just past the counting bound", ratePool(testBrokers(4, 1000, slow), rateUnits{10, 90, "PQ"}), true, fullReplay},
		// A unit sinking R's 20 msgs/s is refused on rate by every broker,
		// empty or not, and the pool does not pack. Its input rate alone
		// lets rate refusals have opened two of the six brokers' three
		// pairs, and the 520 B/s pool fits the third: only the rule that
		// no unit to come be lone keeps the certificate from answering.
		{"a lone unit", ratePool(testBrokers(6, 1000, slow), rateUnits{1, 500, "R"}, rateUnits{2, 10, "P"}), false, fullReplay},
		// The widest unit sinks R: lone for the 10 msgs/s brokers, but the
		// first broker sustains 100 and takes it. A lone unit is still to
		// come at the head; 32 placements in, the first broker is the only
		// one open, and the 29 units to come, 290 B/s and 29 msgs/s, can
		// have opened two of the three pairs left on rate, and fit the
		// third.
		{"the tail test answers", ratePool(
			mixedBrokers([]float64{2000, 1000, 1000, 1000, 1000, 1000, 1000, 1000},
				[]message.MatchingDelayFn{{Base: 0.01}, slow, slow, slow, slow, slow, slow, slow}),
			rateUnits{1, 500, "R"}, rateUnits{60, 10, "P"}), true, cutShort},
		// Capacities of 3,000 to 1,000 B/s and four matching delays: the
		// counting bound takes the largest Base and PerSub, 0.1 s and 2 ms,
		// which leave one pair to a rate refusal ((1.2 + √(1.2² + 4·0.288))/2
		// ≈ 1.4 for 12 msgs/s and 12 filters), and the 1,200 B/s pool is
		// below the other pair's 1,500.
		{"heterogeneous capacities and delays", ratePool(
			mixedBrokers([]float64{3000, 2000, 1500, 1000},
				[]message.MatchingDelayFn{{Base: 0.02}, {Base: 0.05, PerSub: 1e-3}, slow, {Base: 0.04, PerSub: 2e-3}}),
			rateUnits{12, 100, "P"}), true, atHead},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := tc.in
			if err := in.Validate(); err != nil && tc.name != "input rate overflows to +Inf" {
				t.Fatal(err)
			}
			packs, how := checkProbeMatchesCommit(t, in.Units, nil, nil, sortBrokersByCapacity(in.Brokers), in.Publishers)
			if packs != tc.wantPacks || how != tc.wantHow {
				t.Fatalf("probe = %v (%v), want %v (%v)", packs, how, tc.wantPacks, tc.wantHow)
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
