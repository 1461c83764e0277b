package allocation

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/greenps/greenps/internal/bitvector"
	"github.com/greenps/greenps/internal/message"
)

const testCap = 256

// testWorkload builds a synthetic pool: nPubs publishers each publishing
// 200 messages at the given rate, and nSubsPerPub subscriptions per
// publisher — 40% sinking everything from their publisher, 60% sinking a
// random contiguous fraction (mirroring the paper's subscription mix).
func testWorkload(seed int64, nPubs, nSubsPerPub int, rate, msgBytes float64) ([]*Unit, map[string]*bitvector.PublisherStats) {
	rng := rand.New(rand.NewSource(seed))
	pubs := make(map[string]*bitvector.PublisherStats, nPubs)
	var units []*Unit
	const window = 200
	for p := 0; p < nPubs; p++ {
		advID := fmt.Sprintf("ADV%d", p)
		pubs[advID] = &bitvector.PublisherStats{
			AdvID:     advID,
			Rate:      rate,
			Bandwidth: rate * msgBytes,
			LastSeq:   window - 1,
		}
		for s := 0; s < nSubsPerPub; s++ {
			prof := bitvector.NewProfile(testCap)
			if s%5 < 2 { // 40%: everything
				for i := 0; i < window; i++ {
					prof.Record(advID, i)
				}
			} else { // 60%: contiguous slice
				lo := rng.Intn(window / 2)
				hi := lo + window/4 + rng.Intn(window/4)
				for i := lo; i < hi && i < window; i++ {
					prof.Record(advID, i)
				}
			}
			prof.Sync(pubs)
			id := fmt.Sprintf("s-%d-%d", p, s)
			sub := message.NewSubscription(id, "client-"+id, nil)
			load := bitvector.EstimateLoad(prof, pubs)
			units = append(units, NewSubscriptionUnit("u-"+id, sub, prof, load))
		}
	}
	return units, pubs
}

// testBrokers builds n homogeneous brokers.
func testBrokers(n int, bw float64, delay message.MatchingDelayFn) []*BrokerSpec {
	out := make([]*BrokerSpec, n)
	for i := range out {
		out[i] = &BrokerSpec{
			ID:              fmt.Sprintf("B%02d", i),
			URL:             fmt.Sprintf("inproc://B%02d", i),
			Delay:           delay,
			OutputBandwidth: bw,
		}
	}
	return out
}

// stdDelay makes the matching-rate constraint bind for brokers hosting
// mixed-interest subscriptions (high union input rate) while leaving
// single-publisher brokers bandwidth-bound — the regime the paper's
// evaluation operates in: with 8 publishers at 10 msg/s, a fully mixed
// broker (80 msg/s in) tops out near 28 subscriptions while a
// single-stream broker (10 msg/s in) could hold ~240.
func stdDelay() message.MatchingDelayFn {
	return message.MatchingDelayFn{PerSub: 0.0004, Base: 0.001}
}

// stdInput builds the canonical test input: 8 publishers x 25 subs, 20
// brokers with enough aggregate capacity to require a handful of brokers.
func stdInput(t *testing.T) *Input {
	t.Helper()
	units, pubs := testWorkload(42, 8, 25, 10, 100)
	in := &Input{
		Units:           units,
		Brokers:         testBrokers(20, 25_000, stdDelay()),
		Publishers:      pubs,
		ProfileCapacity: testCap,
	}
	if err := in.Validate(); err != nil {
		t.Fatalf("stdInput invalid: %v", err)
	}
	return in
}

// checkAssignment asserts the structural allocation invariants: every unit
// placed exactly once and capacity respected everywhere.
func checkAssignment(t *testing.T, in *Input, a *Assignment) {
	t.Helper()
	placed := make(map[string]string)
	for b, us := range a.ByBroker {
		for _, u := range us {
			for _, m := range u.Members {
				if m.SubID == "" {
					continue
				}
				if prev, dup := placed[m.SubID]; dup {
					t.Fatalf("subscription %s placed on both %s and %s", m.SubID, prev, b)
				}
				placed[m.SubID] = b
			}
		}
	}
	want := 0
	for _, u := range in.Units {
		for _, m := range u.Members {
			if m.SubID != "" {
				want++
			}
		}
	}
	if len(placed) != want {
		t.Fatalf("placed %d subscriptions, want %d", len(placed), want)
	}
	if err := a.CheckCapacity(in.Publishers); err != nil {
		t.Fatalf("capacity violated: %v", err)
	}
}

func TestFBFAllocatesEverything(t *testing.T) {
	in := stdInput(t)
	a, err := (&FBF{Seed: 1}).Allocate(in)
	if err != nil {
		t.Fatalf("FBF: %v", err)
	}
	checkAssignment(t, in, a)
	if a.NumAllocated() == 0 || a.NumAllocated() > len(in.Brokers) {
		t.Fatalf("allocated %d brokers", a.NumAllocated())
	}
}

func TestBinPackingAllocatesEverything(t *testing.T) {
	in := stdInput(t)
	a, err := (&BinPacking{}).Allocate(in)
	if err != nil {
		t.Fatalf("BINPACKING: %v", err)
	}
	checkAssignment(t, in, a)
}

// TestBinPackingBeatsOrTiesFBF checks the paper's observation that BIN
// PACKING consistently allocates no more brokers than FBF.
func TestBinPackingBeatsOrTiesFBF(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		units, pubs := testWorkload(seed, 8, 25, 10, 100)
		in := &Input{Units: units, Brokers: testBrokers(20, 25_000, stdDelay()),
			Publishers: pubs, ProfileCapacity: testCap}
		fa, err := (&FBF{Seed: seed}).Allocate(in)
		if err != nil {
			t.Fatalf("FBF seed %d: %v", seed, err)
		}
		ba, err := (&BinPacking{}).Allocate(in)
		if err != nil {
			t.Fatalf("BINPACKING seed %d: %v", seed, err)
		}
		if ba.NumAllocated() > fa.NumAllocated() {
			t.Errorf("seed %d: BINPACKING used %d brokers, FBF %d", seed,
				ba.NumAllocated(), fa.NumAllocated())
		}
	}
}

func TestAllocationFailsWhenInsufficientResources(t *testing.T) {
	units, pubs := testWorkload(3, 8, 25, 10, 100)
	in := &Input{Units: units, Brokers: testBrokers(2, 500, stdDelay()),
		Publishers: pubs, ProfileCapacity: testCap}
	if _, err := (&BinPacking{}).Allocate(in); err == nil {
		t.Fatal("expected allocation failure on tiny broker pool")
	}
	if _, err := (&FBF{}).Allocate(in); err == nil {
		t.Fatal("expected FBF failure on tiny broker pool")
	}
	cram := &CRAM{Metric: bitvector.MetricIOS}
	if _, err := cram.Allocate(in); err == nil {
		t.Fatal("expected CRAM failure on tiny broker pool")
	}
}

func TestCRAMAllMetricsAllocate(t *testing.T) {
	for _, m := range []bitvector.Metric{bitvector.MetricIntersect, bitvector.MetricXor,
		bitvector.MetricIOS, bitvector.MetricIOU} {
		t.Run(m.String(), func(t *testing.T) {
			in := stdInput(t)
			cram := &CRAM{Metric: m}
			a, err := cram.Allocate(in)
			if err != nil {
				t.Fatalf("CRAM-%v: %v", m, err)
			}
			checkAssignment(t, in, a)
			st := cram.Stats()
			if st.InitialUnits != len(in.Units) {
				t.Errorf("InitialUnits = %d, want %d", st.InitialUnits, len(in.Units))
			}
			if st.InitialGIFs <= 0 || st.InitialGIFs > st.InitialUnits {
				t.Errorf("InitialGIFs = %d out of range", st.InitialGIFs)
			}
			if st.FinalUnits > st.InitialUnits {
				t.Errorf("FinalUnits = %d exceeds initial %d", st.FinalUnits, st.InitialUnits)
			}
			if st.ClosenessComputations == 0 || st.PackAttempts == 0 {
				t.Errorf("stats not recorded: %+v", st)
			}
		})
	}
}

// TestCRAMReducesBrokersVsSorting is the paper's core claim in miniature:
// clustering subscriptions of similar interests allocates fewer brokers
// than capacity-only packing under a matching-rate constraint that
// penalizes mixing unrelated traffic.
func TestCRAMReducesBrokersVsSorting(t *testing.T) {
	units, pubs := testWorkload(7, 4, 50, 20, 100)
	// Matching-limited mixing: at 2 ms of matching delay per subscription,
	// a broker receiving all four publishers' streams (80 msg/s) tops out
	// at ~5 subscriptions, while a single-stream broker (20 msg/s) is
	// bandwidth-bound near 20. Sorting algorithms mix interests and waste
	// brokers; clustering per interest packs to the bandwidth limit.
	delay := message.MatchingDelayFn{PerSub: 0.002, Base: 0.001}
	in := &Input{Units: units, Brokers: testBrokers(60, 25_000, delay),
		Publishers: pubs, ProfileCapacity: testCap}
	ba, err := (&BinPacking{}).Allocate(in)
	if err != nil {
		t.Fatalf("BINPACKING: %v", err)
	}
	cram := &CRAM{Metric: bitvector.MetricIOS}
	ca, err := cram.Allocate(in)
	if err != nil {
		t.Fatalf("CRAM: %v", err)
	}
	checkAssignment(t, in, ca)
	if ca.NumAllocated() >= ba.NumAllocated() {
		t.Errorf("CRAM allocated %d brokers, BINPACKING %d — clustering should win under a binding matching constraint",
			ca.NumAllocated(), ba.NumAllocated())
	}
	if cram.Stats().ClustersAccepted == 0 {
		t.Error("CRAM accepted no clusterings on a clusterable workload")
	}
}

// TestCRAMGIFGroupingReducesGroups verifies optimization 1: the 40%
// identical subscriptions per publisher collapse into GIFs.
func TestCRAMGIFGroupingReducesGroups(t *testing.T) {
	in := stdInput(t)
	cram := &CRAM{Metric: bitvector.MetricIOS}
	if _, err := cram.Allocate(in); err != nil {
		t.Fatal(err)
	}
	grouped := cram.Stats().InitialGIFs
	cramNoGIF := &CRAM{Metric: bitvector.MetricIOS, DisableGIFGrouping: true}
	if _, err := cramNoGIF.Allocate(in); err != nil {
		t.Fatal(err)
	}
	ungrouped := cramNoGIF.Stats().InitialGIFs
	if grouped >= ungrouped {
		t.Errorf("GIF grouping: %d groups with, %d without — expected reduction", grouped, ungrouped)
	}
}

// TestCRAMPosetPruningReducesComputations verifies optimization 2: the
// pruned poset search performs fewer closeness computations than the
// exhaustive scan on a workload with many empty relations.
func TestCRAMPosetPruningReducesComputations(t *testing.T) {
	in := stdInput(t)
	pruned := &CRAM{Metric: bitvector.MetricIOS}
	if _, err := pruned.Allocate(in); err != nil {
		t.Fatal(err)
	}
	exhaustive := &CRAM{Metric: bitvector.MetricIOS, ExhaustiveSearch: true}
	if _, err := exhaustive.Allocate(in); err != nil {
		t.Fatal(err)
	}
	if pruned.Stats().ClosenessComputations >= exhaustive.Stats().ClosenessComputations {
		t.Errorf("pruned search %d computations >= exhaustive %d",
			pruned.Stats().ClosenessComputations, exhaustive.Stats().ClosenessComputations)
	}
}

// TestCRAMXorDoesMoreWork verifies the paper's observation that the XOR
// metric cannot prune and therefore computes more closeness values than
// the zero-pruning metrics.
func TestCRAMXorDoesMoreWork(t *testing.T) {
	in := stdInput(t)
	ios := &CRAM{Metric: bitvector.MetricIOS}
	if _, err := ios.Allocate(in); err != nil {
		t.Fatal(err)
	}
	xor := &CRAM{Metric: bitvector.MetricXor}
	if _, err := xor.Allocate(in); err != nil {
		t.Fatal(err)
	}
	if xor.Stats().ClosenessComputations <= ios.Stats().ClosenessComputations {
		t.Errorf("XOR %d computations <= IOS %d; expected more (no pruning)",
			xor.Stats().ClosenessComputations, ios.Stats().ClosenessComputations)
	}
}

func TestCRAMRequiresMetric(t *testing.T) {
	in := stdInput(t)
	if _, err := (&CRAM{}).Allocate(in); err == nil ||
		!strings.Contains(err.Error(), "metric") {
		t.Fatalf("expected metric-missing error, got %v", err)
	}
}

func TestCRAMHandlesEmptyProfiles(t *testing.T) {
	units, pubs := testWorkload(11, 4, 10, 10, 100)
	// Add subscriptions that sank nothing.
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("idle-%d", i)
		sub := message.NewSubscription(id, "client-"+id, nil)
		units = append(units, NewSubscriptionUnit("u-"+id, sub,
			bitvector.NewProfile(testCap), bitvector.Load{}))
	}
	in := &Input{Units: units, Brokers: testBrokers(10, 6_000, stdDelay()),
		Publishers: pubs, ProfileCapacity: testCap}
	cram := &CRAM{Metric: bitvector.MetricIOU}
	a, err := cram.Allocate(in)
	if err != nil {
		t.Fatalf("CRAM with empty profiles: %v", err)
	}
	checkAssignment(t, in, a)
}

func TestPairwiseClusterCounts(t *testing.T) {
	in := stdInput(t)
	for _, k := range []int{1, 4, 10, len(in.Brokers)} {
		p := &Pairwise{Clusters: k, Variant: fmt.Sprintf("PAIRWISE-%d", k), Seed: 3}
		a, err := p.Allocate(in)
		if err != nil {
			t.Fatalf("pairwise k=%d: %v", k, err)
		}
		if got := a.NumAllocated(); got != k {
			t.Errorf("k=%d: allocated %d brokers, want exactly k", k, got)
		}
		// Every subscription still placed exactly once.
		placed := a.SubscriberPlacement()
		if len(placed) != len(in.Units) {
			t.Errorf("k=%d: placed %d of %d subscriptions", k, len(placed), len(in.Units))
		}
	}
}

func TestPairwiseRejectsBadK(t *testing.T) {
	in := stdInput(t)
	if _, err := (&Pairwise{Clusters: 0}).Allocate(in); err == nil {
		t.Fatal("k=0 accepted")
	}
	// Two distinct-profile groups cannot land on a single broker when the
	// requested cluster count exceeds the pool.
	units, pubs := testWorkload(9, 2, 5, 10, 100)
	if _, err := (&Pairwise{Clusters: 4, Strict: true}).Allocate(&Input{
		Units:           units,
		Brokers:         testBrokers(1, 25_000, stdDelay()),
		Publishers:      pubs,
		ProfileCapacity: testCap,
	}); err == nil {
		t.Fatal("more clusters than brokers accepted")
	}
}

func TestInputValidate(t *testing.T) {
	units, pubs := testWorkload(1, 2, 2, 10, 100)
	good := &Input{Units: units, Brokers: testBrokers(2, 1000, stdDelay()), Publishers: pubs}
	if err := good.Validate(); err != nil {
		t.Fatalf("good input rejected: %v", err)
	}
	cases := []*Input{
		{Units: units, Brokers: nil, Publishers: pubs},
		{Units: units, Brokers: []*BrokerSpec{{ID: "", OutputBandwidth: 1}}, Publishers: pubs},
		{Units: units, Brokers: []*BrokerSpec{{ID: "a", OutputBandwidth: 1}, {ID: "a", OutputBandwidth: 1}}, Publishers: pubs},
		{Units: units, Brokers: []*BrokerSpec{{ID: "a", OutputBandwidth: 0}}, Publishers: pubs},
		{Units: []*Unit{{ID: "", Profile: bitvector.NewProfile(8), Members: []Member{{}}}},
			Brokers: testBrokers(1, 1000, stdDelay()), Publishers: pubs},
		{Units: []*Unit{{ID: "u", Profile: nil, Members: []Member{{}}}},
			Brokers: testBrokers(1, 1000, stdDelay()), Publishers: pubs},
		{Units: []*Unit{{ID: "u", Profile: bitvector.NewProfile(8)}},
			Brokers: testBrokers(1, 1000, stdDelay()), Publishers: pubs},
	}
	for i, in := range cases {
		if err := in.Validate(); err == nil {
			t.Errorf("case %d: invalid input accepted", i)
		}
	}
}

// TestNaNLoadRejected: a NaN unit load voids the >= bandwidth test of the
// broker that takes it and the order the pool is kept in, so every algorithm
// must refuse the input instead of returning a plan CheckCapacity cannot
// fault.
func TestNaNLoadRejected(t *testing.T) {
	algs := []Algorithm{&FBF{Seed: 1}, &BinPacking{}, &CRAM{Metric: bitvector.MetricIOS}}
	for _, load := range []bitvector.Load{{Rate: 1, Bandwidth: math.NaN()}, {Rate: math.NaN(), Bandwidth: 1}} {
		in := *stdInput(t)
		bad := *in.Units[0]
		bad.Load = load
		in.Units = append([]*Unit{&bad}, in.Units[1:]...)
		for _, alg := range algs {
			if a, err := alg.Allocate(&in); err == nil {
				t.Errorf("%s planned a pool with load %+v: B00 output %+v", alg.Name(), load, a.Loads["B00"].Output)
			}
		}
	}
}

func TestMergeUnits(t *testing.T) {
	units, _ := testWorkload(5, 1, 4, 10, 100)
	m := MergeUnits("merged", testCap, units...)
	if len(m.Members) != 4 || m.Filters != 4 {
		t.Fatalf("members=%d filters=%d, want 4/4", len(m.Members), m.Filters)
	}
	var wantBW float64
	for _, u := range units {
		wantBW += u.Load.Bandwidth
	}
	if m.Load.Bandwidth != wantBW {
		t.Fatalf("merged bandwidth %v, want %v", m.Load.Bandwidth, wantBW)
	}
	// Merged profile covers each member profile.
	for _, u := range units {
		rel := bitvector.Relate(m.Profile, u.Profile)
		if rel != bitvector.RelSuperset && rel != bitvector.RelEqual {
			t.Fatalf("merged profile does not cover member: %v", rel)
		}
	}
}

// TestQuickAllocationInvariants fuzzes all algorithms over random workloads
// and broker pools; whenever allocation succeeds, the invariants must hold.
func TestQuickAllocationInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nPubs := 1 + rng.Intn(6)
		nSubs := 1 + rng.Intn(20)
		units, pubs := testWorkload(seed, nPubs, nSubs, 5+rng.Float64()*20, 50+rng.Float64()*200)
		brokers := testBrokers(1+rng.Intn(25), 500+rng.Float64()*8000, stdDelay())
		in := &Input{Units: units, Brokers: brokers, Publishers: pubs, ProfileCapacity: testCap}
		algos := []Algorithm{
			&FBF{Seed: seed},
			&BinPacking{},
			&CRAM{Metric: bitvector.MetricIOS},
			&CRAM{Metric: bitvector.MetricIntersect},
			&CRAM{Metric: bitvector.MetricXor},
		}
		for _, alg := range algos {
			a, err := alg.Allocate(in)
			if err != nil {
				continue // infeasible pools are fine
			}
			// Inline invariant check (can't use t.Fatal inside quick func).
			placed := make(map[string]bool)
			for _, us := range a.ByBroker {
				for _, u := range us {
					for _, m := range u.Members {
						if m.SubID == "" {
							continue
						}
						if placed[m.SubID] {
							t.Logf("%s: %s placed twice", alg.Name(), m.SubID)
							return false
						}
						placed[m.SubID] = true
					}
				}
			}
			if len(placed) != len(units) {
				t.Logf("%s: placed %d of %d", alg.Name(), len(placed), len(units))
				return false
			}
			if err := a.CheckCapacity(pubs); err != nil {
				t.Logf("%s: %v", alg.Name(), err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestAssignmentHelpers(t *testing.T) {
	in := stdInput(t)
	a, err := (&BinPacking{}).Allocate(in)
	if err != nil {
		t.Fatal(err)
	}
	ids := a.AllocatedBrokers()
	if len(ids) != a.NumAllocated() {
		t.Fatal("AllocatedBrokers length mismatch")
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatal("AllocatedBrokers not sorted")
		}
	}
	if a.UnitCount() != len(in.Units) {
		t.Fatalf("UnitCount = %d, want %d", a.UnitCount(), len(in.Units))
	}
	placement := a.SubscriberPlacement()
	if len(placement) != len(in.Units) {
		t.Fatalf("placement size = %d, want %d", len(placement), len(in.Units))
	}
}

// TestCRAMOrderInvariance: shuffling the input unit order must not change
// the allocation outcome — all internal iteration is explicitly ordered.
func TestCRAMOrderInvariance(t *testing.T) {
	base := stdInput(t)
	run := func(units []*Unit) *Assignment {
		in := &Input{Units: units, Brokers: base.Brokers,
			Publishers: base.Publishers, ProfileCapacity: testCap}
		cram := &CRAM{Metric: bitvector.MetricIOS}
		a, err := cram.Allocate(in)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	a := run(base.Units)
	shuffled := make([]*Unit, len(base.Units))
	copy(shuffled, base.Units)
	rng := rand.New(rand.NewSource(99))
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	b := run(shuffled)
	if a.NumAllocated() != b.NumAllocated() {
		t.Fatalf("broker count depends on input order: %d vs %d",
			a.NumAllocated(), b.NumAllocated())
	}
	pa, pb := a.SubscriberPlacement(), b.SubscriberPlacement()
	diffs := 0
	for id, br := range pa {
		if pb[id] != br {
			diffs++
		}
	}
	if diffs != 0 {
		t.Fatalf("%d of %d placements depend on input order", diffs, len(pa))
	}
}
