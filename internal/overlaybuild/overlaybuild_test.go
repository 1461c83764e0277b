package overlaybuild

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"github.com/greenps/greenps/internal/allocation"
	"github.com/greenps/greenps/internal/bitvector"
	"github.com/greenps/greenps/internal/message"
)

const testCap = 256

// buildWorkload mirrors the allocation package's synthetic pool: nPubs
// publishers, nSubsPerPub subscriptions (40% full-stream, 60% partial).
func buildWorkload(seed int64, nPubs, nSubsPerPub int, rate, msgBytes float64) ([]*allocation.Unit, map[string]*bitvector.PublisherStats) {
	rng := rand.New(rand.NewSource(seed))
	pubs := make(map[string]*bitvector.PublisherStats, nPubs)
	var units []*allocation.Unit
	const window = 200
	for p := 0; p < nPubs; p++ {
		advID := fmt.Sprintf("ADV%d", p)
		pubs[advID] = &bitvector.PublisherStats{AdvID: advID, Rate: rate,
			Bandwidth: rate * msgBytes, LastSeq: window - 1}
		for s := 0; s < nSubsPerPub; s++ {
			prof := bitvector.NewProfile(testCap)
			if s%5 < 2 {
				for i := 0; i < window; i++ {
					prof.Record(advID, i)
				}
			} else {
				lo := rng.Intn(window / 2)
				hi := lo + window/4 + rng.Intn(window/4)
				for i := lo; i < hi && i < window; i++ {
					prof.Record(advID, i)
				}
			}
			prof.Sync(pubs)
			id := fmt.Sprintf("s-%d-%d", p, s)
			units = append(units, allocation.NewSubscriptionUnit("u-"+id, id, prof,
				bitvector.EstimateLoad(prof, pubs)))
		}
	}
	return units, pubs
}

func brokerPool(n int, bw float64) []*allocation.BrokerSpec {
	out := make([]*allocation.BrokerSpec, n)
	for i := range out {
		out[i] = &allocation.BrokerSpec{
			ID:              fmt.Sprintf("B%02d", i),
			URL:             fmt.Sprintf("inproc://B%02d", i),
			Delay:           message.MatchingDelayFn{PerSub: 0.0004, Base: 0.001},
			OutputBandwidth: bw,
		}
	}
	return out
}

// phase2 runs BIN PACKING over the standard workload and returns the
// assignment plus its input.
func phase2(t *testing.T, seed int64, nBrokers int, bw float64) (*allocation.Assignment, *allocation.Input) {
	t.Helper()
	units, pubs := buildWorkload(seed, 6, 20, 10, 100)
	in := &allocation.Input{Units: units, Brokers: brokerPool(nBrokers, bw),
		Publishers: pubs}
	a, err := (&allocation.BinPacking{}).Allocate(in)
	if err != nil {
		t.Fatalf("phase 2: %v", err)
	}
	return a, in
}

func TestBuildProducesValidTree(t *testing.T) {
	a, in := phase2(t, 1, 30, 12_000)
	b := &Builder{Algorithm: &allocation.BinPacking{}}
	tree, err := b.Build(a, in.Publishers)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("invalid tree: %v", err)
	}
	if tree.NumBrokers() < a.NumAllocated() {
		t.Fatalf("tree has %d brokers, fewer than the %d leaves", tree.NumBrokers(), a.NumAllocated())
	}
	// All subscriptions still placed.
	placement := tree.SubscriberPlacement()
	if len(placement) != len(in.Units) {
		t.Fatalf("placement covers %d of %d subscriptions", len(placement), len(in.Units))
	}
	// No pure forwarders after optimization 1.
	if pf := tree.PureForwarders(); len(pf) != 0 {
		t.Fatalf("pure forwarders remain: %v", pf)
	}
}

func TestBuildSingleLeafIsRoot(t *testing.T) {
	units, pubs := buildWorkload(2, 1, 3, 1, 50)
	in := &allocation.Input{Units: units, Brokers: brokerPool(5, 50_000),
		Publishers: pubs}
	a, err := (&allocation.BinPacking{}).Allocate(in)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumAllocated() != 1 {
		t.Fatalf("want single-broker assignment, got %d", a.NumAllocated())
	}
	b := &Builder{Algorithm: &allocation.BinPacking{}}
	tree, err := b.Build(a, pubs)
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumBrokers() != 1 || tree.Root == "" {
		t.Fatalf("tree = %+v, want exactly the one leaf as root", tree)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestValidateRejects holds Validate to the brokers it is given: each row
// breaks one rule of a tree over exactly the allocated brokers, and the
// spec-less child reaches as many brokers as are allocated.
func TestValidateRejects(t *testing.T) {
	specs := func(ids ...string) map[string]*allocation.BrokerSpec {
		out := make(map[string]*allocation.BrokerSpec)
		for _, id := range ids {
			out[id] = &allocation.BrokerSpec{ID: id, OutputBandwidth: 1}
		}
		return out
	}
	cases := []struct {
		name string
		tree Tree
		want string
	}{
		{"no root", Tree{Specs: specs("R")}, "no root"},
		{"a root without a spec", Tree{Root: "R", Specs: specs("A")}, "root \"R\" has no spec"},
		{"a child without a spec", Tree{Root: "R", Children: map[string][]string{"R": {"X"}}, Specs: specs("R", "A")}, "child \"X\" of \"R\" has no spec"},
		{"an unreachable broker", Tree{Root: "R", Children: map[string][]string{"R": {"A"}}, Specs: specs("R", "A", "B")}, "\"B\" is not reachable"},
		{"a broker reached twice", Tree{Root: "R", Children: map[string][]string{"R": {"A", "B"}, "B": {"A"}}, Specs: specs("R", "A", "B")}, "\"A\" reached twice"},
		{"the root listed as a child", Tree{Root: "R", Children: map[string][]string{"R": {"A"}, "A": {"R"}}, Specs: specs("R", "A")}, "\"R\" reached twice"},
		{"children listed for a broker outside the tree", Tree{Root: "R", Children: map[string][]string{"R": {"A"}, "ghost": {"A"}}, Specs: specs("R", "A")}, "\"ghost\" has children or hosted units"},
		{"units hosted on a broker outside the tree", Tree{Root: "R", Children: map[string][]string{"R": {"A"}}, Hosted: map[string][]*allocation.Unit{"ghost": nil}, Specs: specs("R", "A")}, "\"ghost\" has children or hosted units"},
	}
	for _, tc := range cases {
		err := tc.tree.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestBuildRequiresAlgorithm(t *testing.T) {
	a, in := phase2(t, 3, 30, 12_000)
	b := &Builder{}
	if _, err := b.Build(a, in.Publishers); err == nil {
		t.Fatal("nil algorithm accepted")
	}
}

func TestBuildFailsOnExhaustedPool(t *testing.T) {
	// Exactly enough brokers for the leaves, none left for upper layers.
	units, pubs := buildWorkload(4, 6, 20, 10, 100)
	in := &allocation.Input{Units: units, Brokers: brokerPool(40, 12_000),
		Publishers: pubs}
	a, err := (&allocation.BinPacking{}).Allocate(in)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumAllocated() < 2 {
		t.Skip("workload fit one broker; cannot exercise pool exhaustion")
	}
	trimmed := &allocation.Assignment{
		ByBroker: a.ByBroker,
		Loads:    a.Loads,
		Specs:    make(map[string]*allocation.BrokerSpec),
	}
	for id := range a.ByBroker {
		trimmed.Specs[id] = a.Specs[id]
	}
	b := &Builder{Algorithm: &allocation.BinPacking{}}
	if _, err := b.Build(trimmed, pubs); err == nil {
		t.Fatal("expected failure with no spare brokers for upper layers")
	}
}

// TestOptimizationsReduceBrokerCount compares construction with and without
// the three optimizations (experiment E10's shape): the optimized tree must
// never use more brokers, and on this workload uses strictly fewer.
func TestOptimizationsReduceBrokerCount(t *testing.T) {
	a, in := phase2(t, 5, 40, 12_000)
	opt := &Builder{Algorithm: &allocation.BinPacking{}}
	optTree, err := opt.Build(a, in.Publishers)
	if err != nil {
		t.Fatalf("optimized build: %v", err)
	}
	raw := &Builder{
		Algorithm:                  &allocation.BinPacking{},
		DisableEliminateForwarders: true,
		DisableTakeover:            true,
		DisableBestFit:             true,
	}
	rawTree, err := raw.Build(a, in.Publishers)
	if err != nil {
		t.Fatalf("raw build: %v", err)
	}
	if optTree.NumBrokers() > rawTree.NumBrokers() {
		t.Errorf("optimized tree uses %d brokers, raw %d", optTree.NumBrokers(), rawTree.NumBrokers())
	}
	st := opt.Stats()
	if st.ForwardersEliminated+st.Takeovers+st.BestFitSwaps == 0 {
		t.Error("no optimization fired on a multi-layer build")
	}
	if err := optTree.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := rawTree.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestTakeoverAbsorbsUnderutilizedChildren forces the Figure-4b scenario: a
// tiny trailing leaf whose parent has ample spare capacity.
func TestTakeoverAbsorbsUnderutilizedChildren(t *testing.T) {
	a, in := phase2(t, 6, 40, 12_000)
	b := &Builder{Algorithm: &allocation.BinPacking{}, DisableBestFit: true}
	tree, err := b.Build(a, in.Publishers)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	// With takeover enabled, internal brokers may host subscriptions.
	// Verify capacity still holds everywhere: recompute each broker's
	// hypothetical unit set and check it fits. A child's filter is the OR
	// of every profile hosted at or below it.
	var subtree func(id string, into *bitvector.Profile)
	subtree = func(id string, into *bitvector.Profile) {
		for _, u := range tree.Hosted[id] {
			into.Or(u.Profile)
		}
		for _, ch := range tree.Children[id] {
			subtree(ch, into)
		}
	}
	for _, id := range tree.Brokers() {
		var units []*allocation.Unit
		units = append(units, tree.Hosted[id]...)
		for _, ch := range tree.Children[id] {
			prof := bitvector.NewProfile(testCap)
			subtree(ch, prof)
			in := bitvector.EstimateLoad(prof, in.Publishers)
			units = append(units, &allocation.Unit{
				ID:      "ps-" + ch,
				Members: []allocation.Member{{ChildBroker: ch}},
				Profile: prof,
				Load:    in,
			})
		}
		if !allocation.FitsBroker(tree.Specs[id], units, in.Publishers) {
			t.Errorf("broker %s over capacity after construction", id)
		}
	}
}

// TestBestFitPrefersSmallBrokers: with a heterogeneous pool, the optimized
// build should leave the big brokers free when small ones suffice.
func TestBestFitPrefersSmallBrokers(t *testing.T) {
	units, pubs := buildWorkload(7, 4, 15, 10, 100)
	// Heterogeneous: a few huge brokers, many small.
	var pool []*allocation.BrokerSpec
	for i := 0; i < 5; i++ {
		pool = append(pool, &allocation.BrokerSpec{
			ID: fmt.Sprintf("BIG%d", i), URL: "x",
			Delay:           message.MatchingDelayFn{PerSub: 0.0004, Base: 0.001},
			OutputBandwidth: 50_000,
		})
	}
	for i := 0; i < 30; i++ {
		pool = append(pool, &allocation.BrokerSpec{
			ID: fmt.Sprintf("SML%02d", i), URL: "x",
			Delay:           message.MatchingDelayFn{PerSub: 0.0004, Base: 0.001},
			OutputBandwidth: 9_000,
		})
	}
	in := &allocation.Input{Units: units, Brokers: pool, Publishers: pubs}
	a, err := (&allocation.BinPacking{}).Allocate(in)
	if err != nil {
		t.Fatal(err)
	}
	b := &Builder{Algorithm: &allocation.BinPacking{}}
	tree, err := b.Build(a, pubs)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if b.Stats().BestFitSwaps == 0 {
		t.Error("best-fit never fired despite heterogeneous pool")
	}
}

// TestQuickBuildInvariants fuzzes Phase 2 + Phase 3 end to end.
func TestQuickBuildInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nPubs := 1 + rng.Intn(5)
		units, pubs := buildWorkload(seed, nPubs, 1+rng.Intn(15), 5+rng.Float64()*15, 100)
		in := &allocation.Input{
			Units:      units,
			Brokers:    brokerPool(10+rng.Intn(30), 6_000+rng.Float64()*20_000),
			Publishers: pubs,
		}
		a, err := (&allocation.BinPacking{}).Allocate(in)
		if err != nil {
			return true // infeasible phase 2 is fine
		}
		b := &Builder{Algorithm: &allocation.BinPacking{}}
		tree, err := b.Build(a, pubs)
		if err != nil {
			return true // pool exhaustion etc is a legitimate failure
		}
		if err := tree.Validate(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if got := len(tree.SubscriberPlacement()); got != len(units) {
			t.Logf("seed %d: %d of %d subscriptions placed", seed, got, len(units))
			return false
		}
		if pf := tree.PureForwarders(); len(pf) != 0 {
			t.Logf("seed %d: pure forwarders %v", seed, pf)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// PureForwarders returns brokers that host no subscriptions and have
// exactly one child — the anomaly optimization 1 eliminates. A valid
// optimized tree returns none.
func (t *Tree) PureForwarders() []string {
	var out []string
	for id := range t.Specs {
		if len(t.Hosted[id]) == 0 && len(t.Children[id]) == 1 {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}
