package core

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/greenps/greenps/internal/bitvector"
	"github.com/greenps/greenps/internal/grape"
	"github.com/greenps/greenps/internal/message"
)

// buildInfos fabricates a gathered-BIA snapshot: nBrokers homogeneous
// brokers, nPubs publishers on broker 0, and per-publisher subscription
// groups spread over brokers (some identical full-stream profiles, some
// partial), profiled in 256-bit vectors.
func buildInfos(nBrokers, nPubs, subsPerPub int) []message.BrokerInfo {
	return buildInfosAt(256, nBrokers, nPubs, subsPerPub)
}

// buildInfosAt is buildInfos with vectors of the given capacity.
func buildInfosAt(capacity, nBrokers, nPubs, subsPerPub int) []message.BrokerInfo {
	const window = 100
	infos := make([]message.BrokerInfo, nBrokers)
	for b := range infos {
		infos[b] = message.BrokerInfo{
			ID:              fmt.Sprintf("B%02d", b),
			URL:             fmt.Sprintf("127.0.0.1:%d", 7000+b),
			Delay:           message.MatchingDelayFn{PerSub: 0.0001, Base: 0.001},
			OutputBandwidth: 50_000,
		}
	}
	for p := 0; p < nPubs; p++ {
		advID := fmt.Sprintf("ADV%d", p)
		adv := message.NewAdvertisement(advID, "pub"+advID, []message.Predicate{
			message.Pred("symbol", message.OpEq, message.String(advID)),
		})
		infos[0].Publishers = append(infos[0].Publishers, message.PublisherInfo{
			Adv: adv,
			Stats: &bitvector.PublisherStats{
				AdvID: advID, Rate: 5, Bandwidth: 1500, LastSeq: window - 1,
			},
		})
		for s := 0; s < subsPerPub; s++ {
			prof := bitvector.NewProfile(capacity)
			lo, hi := 0, window-1
			if s%2 == 1 {
				lo, hi = 10*(s%5), 10*(s%5)+40
			}
			for i := lo; i <= hi; i++ {
				prof.Record(advID, i)
			}
			prof.Vector(advID).Observe(window - 1)
			sub := message.NewSubscription(fmt.Sprintf("s-%d-%d", p, s),
				fmt.Sprintf("c-%d-%d", p, s), nil)
			b := (p*subsPerPub + s) % nBrokers
			infos[b].Subscriptions = append(infos[b].Subscriptions, message.SubscriptionInfo{
				Sub: sub, Profile: prof,
			})
		}
	}
	return infos
}

func TestComputePlanAllAlgorithms(t *testing.T) {
	infos := buildInfos(16, 5, 12)
	for _, alg := range Algorithms() {
		t.Run(alg, func(t *testing.T) {
			plan, err := ComputePlan(infos, Config{Algorithm: alg, Seed: 3, ProfileCapacity: 256, Clock: time.Now})
			if err != nil {
				t.Fatalf("%s: %v", alg, err)
			}
			if err := plan.Tree.Validate(); err != nil {
				t.Fatalf("%s: invalid tree: %v", alg, err)
			}
			if plan.NumBrokers() < 1 || plan.NumBrokers() > 16 {
				t.Fatalf("%s: %d brokers", alg, plan.NumBrokers())
			}
			// Every subscription placed exactly once.
			if len(plan.Subscribers) != 60 {
				t.Fatalf("%s: %d subscriptions placed, want 60", alg, len(plan.Subscribers))
			}
			// Every publisher placed on an allocated broker.
			if len(plan.Publishers) != 5 {
				t.Fatalf("%s: %d publishers placed", alg, len(plan.Publishers))
			}
			for advID, b := range plan.Publishers {
				if _, ok := plan.Tree.Specs[b]; !ok {
					t.Fatalf("%s: publisher %s placed on unallocated broker %s", alg, advID, b)
				}
			}
			if plan.ComputeTime() <= 0 {
				t.Errorf("%s: missing compute time", alg)
			}
		})
	}
}

// TestPhaseTimesSumToComputeTime plans with a clock that steps 1 ms per
// read: the four stages take one step each and add up to 4 ms, so no
// clock read and no planning work falls outside a stage.
func TestPhaseTimesSumToComputeTime(t *testing.T) {
	infos := buildInfos(8, 3, 10)
	for _, alg := range []string{AlgBinPacking, AlgPairwiseK} {
		var now time.Time
		clock := func() time.Time {
			now = now.Add(time.Millisecond)
			return now
		}
		plan, err := ComputePlan(infos, Config{Algorithm: alg, ProfileCapacity: 256, Clock: clock})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if got := plan.ComputeTime(); got != 4*time.Millisecond {
			t.Errorf("%s: stages %+v sum to %v, want 4ms", alg, plan.PhaseTimes, got)
		}
	}
}

func TestComputePlanRejectsUnknownAlgorithm(t *testing.T) {
	infos := buildInfos(4, 2, 4)
	if _, err := ComputePlan(infos, Config{Algorithm: "MAGIC"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// TestComputePlanRejectsForeignCapacity: a BIA profile of another capacity
// than the configured one is refused with an error naming the subscription
// and both capacities, and without a configured capacity a BIA of two
// capacities is refused with an error naming two subscriptions and both
// capacities — not planned with kernels that walk two vectors word by word.
func TestComputePlanRejectsForeignCapacity(t *testing.T) {
	const planCap = 1280
	infos := buildInfosAt(planCap, 4, 2, 6)
	cfg := Config{Algorithm: AlgCRAMIOS, ProfileCapacity: planCap}
	if _, err := ComputePlan(infos, cfg); err != nil {
		t.Fatalf("uniform %d-bit profiles: %v", planCap, err)
	}
	// The same subscription's profile as a 640-bit broker would send it.
	data, err := json.Marshal(buildInfosAt(640, 4, 2, 6)[1].Subscriptions[0].Profile)
	if err != nil {
		t.Fatal(err)
	}
	foreign := &infos[1].Subscriptions[0]
	foreign.Profile = new(bitvector.Profile)
	if err := json.Unmarshal(data, foreign.Profile); err != nil {
		t.Fatal(err)
	}
	first := infos[0].Subscriptions[0].Sub.ID // the lowest unit ID
	for _, bi := range infos {
		for _, si := range bi.Subscriptions {
			first = min(first, si.Sub.ID)
		}
	}
	for _, c := range []struct {
		capacity int
		names    []string
	}{
		{planCap, []string{`"` + foreign.Sub.ID + `"`, "640", "1280"}},
		{0, []string{`"u-` + foreign.Sub.ID + `"`, `"u-` + first + `"`, "640", "1280"}},
	} {
		cfg.ProfileCapacity = c.capacity
		_, err := ComputePlan(infos, cfg)
		if err == nil {
			t.Fatalf("ProfileCapacity %d: profiles of 640 and 1280 bits were planned", c.capacity)
		}
		for _, want := range c.names {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("ProfileCapacity %d: error %q does not name %s", c.capacity, err, want)
			}
		}
	}
}

func TestComputePlanRejectsEmptyInfos(t *testing.T) {
	if _, err := ComputePlan(nil, Config{Algorithm: AlgFBF}); err == nil {
		t.Fatal("empty infos accepted")
	}
}

func TestComputePlanCRAMStats(t *testing.T) {
	infos := buildInfos(16, 5, 12)
	plan, err := ComputePlan(infos, Config{Algorithm: AlgCRAMIOS, ProfileCapacity: 256})
	if err != nil {
		t.Fatal(err)
	}
	if plan.CRAMStats == nil {
		t.Fatal("CRAM run did not record stats")
	}
	if plan.CRAMStats.InitialUnits != 60 {
		t.Fatalf("InitialUnits = %d", plan.CRAMStats.InitialUnits)
	}
	// The 50% identical full-stream subscriptions per publisher must have
	// grouped: fewer GIFs than units.
	if plan.CRAMStats.InitialGIFs >= 60 {
		t.Fatalf("no GIF grouping: %d groups", plan.CRAMStats.InitialGIFs)
	}
}

func TestComputePlanGrapeModes(t *testing.T) {
	infos := buildInfos(16, 5, 12)
	for _, mode := range []grape.Mode{grape.ModeLoad, grape.ModeDelay} {
		if _, err := ComputePlan(infos, Config{Algorithm: AlgBinPacking, GrapeMode: mode,
			ProfileCapacity: 256}); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
	}
}

func TestPairwiseVariantsDiffer(t *testing.T) {
	infos := buildInfos(16, 5, 12)
	k, err := ComputePlan(infos, Config{Algorithm: AlgPairwiseK, Seed: 1, ProfileCapacity: 256})
	if err != nil {
		t.Fatal(err)
	}
	n, err := ComputePlan(infos, Config{Algorithm: AlgPairwiseN, Seed: 1, ProfileCapacity: 256})
	if err != nil {
		t.Fatal(err)
	}
	// PAIRWISE-N targets one cluster per broker; with more groups than
	// brokers it must allocate every broker.
	if n.NumBrokers() != 16 {
		t.Fatalf("PAIRWISE-N allocated %d of 16 brokers", n.NumBrokers())
	}
	if k.NumBrokers() > n.NumBrokers() {
		t.Fatalf("PAIRWISE-K (%d) allocated more than PAIRWISE-N (%d)",
			k.NumBrokers(), n.NumBrokers())
	}
}

func TestRandomTreeDeterministicPerSeed(t *testing.T) {
	infos := buildInfos(10, 3, 8)
	a, err := ComputePlan(infos, Config{Algorithm: AlgPairwiseN, Seed: 7, ProfileCapacity: 256})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ComputePlan(infos, Config{Algorithm: AlgPairwiseN, Seed: 7, ProfileCapacity: 256})
	if err != nil {
		t.Fatal(err)
	}
	if a.Tree.Root != b.Tree.Root {
		t.Fatal("same seed produced different random trees")
	}
	c, err := ComputePlan(infos, Config{Algorithm: AlgPairwiseN, Seed: 8, ProfileCapacity: 256})
	if err != nil {
		t.Fatal(err)
	}
	_ = c // different seed may or may not differ; just ensure it runs
}

func TestAlgorithmsList(t *testing.T) {
	algs := Algorithms()
	if len(algs) != 8 {
		t.Fatalf("expected 8 algorithms, got %d", len(algs))
	}
	seen := make(map[string]bool)
	for _, a := range algs {
		if seen[a] {
			t.Fatalf("duplicate algorithm %s", a)
		}
		seen[a] = true
	}
}
