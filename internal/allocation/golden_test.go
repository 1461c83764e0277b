package allocation

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"

	"github.com/greenps/greenps/internal/bitvector"
)

// cramGoldenCase is one row of TestCRAMGolden: a CRAM configuration, every
// CRAMStats counter it reads and its plan's fingerprint hash.
type cramGoldenCase struct {
	name  string
	cram  CRAM
	stats CRAMStats
	plan  string // first 8 bytes of sha256(Assignment.Fingerprint()), hex
}

// cramGolden is TestCRAMGolden's 2,000-subscription pool, whose tight brokers
// reject 144–156 clusterings, and its four rows.
func cramGolden(t *testing.T) (*Input, []cramGoldenCase) {
	units, pubs := testWorkload(1, 20, 100, 10, 100)
	in := &Input{Units: units, Brokers: testBrokers(100, 25_000, stdDelay()), Publishers: pubs}
	return in, []cramGoldenCase{
		{
			name: "poset", cram: CRAM{Metric: bitvector.MetricIOS},
			stats: CRAMStats{InitialUnits: 2000, InitialGIFs: 1210, FinalUnits: 60,
				ClosenessComputations: 132817, CoverComputations: 11488, PackAttempts: 1382, PlacementsReplayed: 525287,
				ClustersAccepted: 1037, ClustersRejected: 144, OneToManyApplied: 107},
			plan: "0c00ea846916a3b4",
		},
		{
			name: "exhaustive", cram: CRAM{Metric: bitvector.MetricIOS, ExhaustiveSearch: true},
			stats: CRAMStats{InitialUnits: 2000, InitialGIFs: 1210, FinalUnits: 62,
				ClosenessComputations: 2877050, BoundPruned: 2768856, PackAttempts: 1575, PlacementsReplayed: 588632,
				ClustersAccepted: 1218, ClustersRejected: 156},
			plan: "5bc519fba023d736",
		},
		{
			name: "sharded-exhaustive", cram: CRAM{Metric: bitvector.MetricIOS, ExhaustiveSearch: true, Shards: 16},
			stats: CRAMStats{InitialUnits: 2000, InitialGIFs: 1210, FinalUnits: 62,
				ClosenessComputations: 2877050, BoundPruned: 2768856, PackAttempts: 1575, PlacementsReplayed: 588632,
				ClustersAccepted: 1218, ClustersRejected: 156, ShardsPruned: 54480},
			plan: "5bc519fba023d736",
		},
		{
			name: "spilled-exhaustive", cram: CRAM{Metric: bitvector.MetricIOS, ExhaustiveSearch: true,
				SpillBudgetBytes: 4096, SpillDir: t.TempDir()},
			stats: CRAMStats{InitialUnits: 2000, InitialGIFs: 1210, FinalUnits: 62,
				ClosenessComputations: 2877050, BoundPruned: 2768856, PackAttempts: 1575, PlacementsReplayed: 588632,
				ClustersAccepted: 1218, ClustersRejected: 156, SpilledRuns: 5},
			plan: "5bc519fba023d736",
		},
	}
}

// checkCRAMGolden runs one row through runChecked and fails unless its stats
// and plan read as the row records them.
func checkCRAMGolden(t *testing.T, in *Input, tc cramGoldenCase) {
	t.Helper()
	_, a, err := runChecked(t, &tc.cram, in)
	if err != nil {
		t.Fatal(err)
	}
	if got := tc.cram.Stats(); got != tc.stats {
		t.Errorf("stats moved:\n got %+v\nwant %+v", got, tc.stats)
	}
	sum := sha256.Sum256([]byte(a.Fingerprint()))
	if got := fmt.Sprintf("%x", sum[:8]); got != tc.plan {
		t.Errorf("plan moved: fingerprint hash %s, want %s", got, tc.plan)
	}
}

// TestCRAMGolden pins what CRAM-IOS does on one 2,000-subscription pool —
// every CRAMStats counter and the hash of the plan's fingerprint — in the
// three partner-search modes, and in the exhaustive one with its seed
// candidates spilled to disk, so that the spill's records resolve to the GIFs
// they name, rejected and dropped ones included. The brokers are tight enough
// that clusterings get rejected, so the rejection record takes part in every
// search. The other equivalence tests compare one run of today's code with
// another; this one compares today's code with the code that wrote these
// values down, so a search loop that drifts a count or a tie-break fails here
// and not only in the benchmark's digests. A change that means to alter plans
// or counts re-reads the values and says so.
func TestCRAMGolden(t *testing.T) {
	in, cases := cramGolden(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkCRAMGolden(t, in, tc) })
	}
}

// eagerMembers is a unit's member list as MergeUnits built it when it copied
// members: each part's list, in merge order, recursively.
func eagerMembers(u *Unit) []Member {
	if u.parts == nil {
		return slices.Clone(u.Members)
	}
	var out []Member
	for _, p := range u.parts {
		out = append(out, eagerMembers(p)...)
	}
	return out
}

// TestHostedMembersInMergeOrder holds the members an Assignment's units
// carry to the ones MergeUnits copied before merged units kept their parts.
// CRAM, poset and exhaustive, runs on TestCRAMGolden's pool to the end of its
// clustering loop; each pool unit's eager member list is taken then, and
// every unit the final pack hosts must carry exactly that list, as many
// members as its compiled filter count, which its broker's Filters sum. The
// PAIRWISE-K Assignment on the same pool, whose clusters merge input units,
// must host every subscription once, and a BIN PACKING of units merged three
// deep must spell each out in merge order.
func TestHostedMembersInMergeOrder(t *testing.T) {
	units, pubs := testWorkload(1, 20, 100, 10, 100)
	in := &Input{Units: units, Brokers: testBrokers(100, 25_000, stdDelay()), Publishers: pubs}
	table := newPublisherTable(pubs, units)
	// check holds every hosted unit to want (nil: any list) and returns how
	// many hosted units have more than one member.
	check := func(t *testing.T, a *Assignment, want map[*Unit][]Member) (merged int) {
		t.Helper()
		for _, b := range a.AllocatedBrokers() {
			filters := 0
			for _, u := range a.ByBroker[b] {
				w, ok := want[u]
				switch {
				case u.Members == nil || u.parts != nil:
					t.Fatalf("broker %s hosts unit %s with its members not spelled out", b, u.ID)
				case want != nil && !ok:
					t.Fatalf("broker %s hosts unit %s, which the pool did not hold", b, u.ID)
				case want != nil && !slices.Equal(u.Members, w):
					t.Fatalf("unit %s carries %d members, not the %d of its parts in merge order", u.ID, len(u.Members), len(w))
				case int(compileUnit(u, table).filters) != len(u.Members):
					t.Fatalf("unit %s compiles to %d filters and carries %d members", u.ID, compileUnit(u, table).filters, len(u.Members))
				}
				filters += len(u.Members)
				if len(u.Members) > 1 {
					merged++
				}
			}
			if a.Loads[b].Filters != filters {
				t.Fatalf("broker %s has %d filters, its units %d members", b, a.Loads[b].Filters, filters)
			}
		}
		return merged
	}
	for _, exhaustive := range []bool{false, true} {
		t.Run(fmt.Sprintf("cram-exhaustive=%v", exhaustive), func(t *testing.T) {
			r, err := (&CRAM{Metric: bitvector.MetricIOS, ExhaustiveSearch: exhaustive}).start(in)
			if err != nil {
				t.Fatal(err)
			}
			defer r.spill.close()
			if err := r.cluster(); err != nil {
				t.Fatal(err)
			}
			want := make(map[*Unit][]Member)
			for _, bl := range r.pool.blocks {
				for _, u := range bl.units {
					want[u] = eagerMembers(u)
				}
			}
			a, err := r.pack()
			if err != nil {
				t.Fatal(err)
			}
			if check(t, a, want) == 0 {
				t.Fatal("no hosted unit was merged")
			}
		})
	}
	t.Run("PAIRWISE-K", func(t *testing.T) {
		a, err := (&Pairwise{Clusters: 61, Variant: "PAIRWISE-K", Seed: 1}).Allocate(in)
		if err != nil {
			t.Fatal(err)
		}
		if check(t, a, nil) == 0 {
			t.Fatal("no hosted unit was merged")
		}
		seen := make(map[string]int)
		for _, us := range a.ByBroker {
			for _, u := range us {
				for _, m := range u.Members {
					seen[m.SubID]++
				}
			}
		}
		for _, u := range units {
			if n := seen[u.Members[0].SubID]; n != 1 {
				t.Fatalf("subscription %s hosted %d times", u.Members[0].SubID, n)
			}
		}
	})
	t.Run("nested", func(t *testing.T) {
		leaf := units[:6]
		deep := MergeUnits("m1", leaf[0], MergeUnits("m2", leaf[1], leaf[2]))
		deeper := MergeUnits("m3", MergeUnits("m4", MergeUnits("m5", leaf[3])), leaf[4])
		want := map[*Unit][]Member{leaf[5]: leaf[5].Members}
		for u, parts := range map[*Unit][]*Unit{deep: leaf[:3], deeper: leaf[3:5]} {
			for _, p := range parts {
				want[u] = append(want[u], p.Members...)
			}
		}
		a, err := (&BinPacking{}).Allocate(&Input{Units: []*Unit{deep, deeper, leaf[5]}, Brokers: in.Brokers, Publishers: pubs})
		if err != nil {
			t.Fatal(err)
		}
		if check(t, a, want) != 2 {
			t.Fatal("the two merged units are not hosted")
		}
	})
}
