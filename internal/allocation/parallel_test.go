package allocation

import (
	"fmt"
	"math/rand"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"github.com/greenps/greenps/internal/bitvector"
)

// TestCRAMDeterministicAcrossParallelism is the contract the seed-phase
// fan-out rides on: Parallelism is purely a wall-clock knob. For each metric
// and search mode, the Assignment fingerprint and the complete CRAMStats
// must be identical at every parallelism level — also when the worker
// goroutines outnumber the processors (procs 1: twelve workers share one).
func TestCRAMDeterministicAcrossParallelism(t *testing.T) {
	in := stdInput(t)
	cases := []struct {
		name       string
		metric     bitvector.Metric
		exhaustive bool
		shards     int // CRAM.Shards; above 1 the seed phase also tallies ShardsPruned
		procs      int // GOMAXPROCS for the case; 0 leaves it alone
	}{
		{"xor-poset", bitvector.MetricXor, false, 0, 0},
		{"ios-poset", bitvector.MetricIOS, false, 0, 0},
		{"intersect-exhaustive", bitvector.MetricIntersect, true, 0, 0},
		{"ios-exhaustive-sharded", bitvector.MetricIOS, true, 4, 0},
		{"ios-poset-one-proc", bitvector.MetricIOS, false, 0, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.procs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			}
			var wantFP string
			var wantStats CRAMStats
			for _, par := range []int{1, 2, 8, 12} {
				cram := &CRAM{Metric: tc.metric, ExhaustiveSearch: tc.exhaustive, Shards: tc.shards, Parallelism: par}
				a, err := cram.Allocate(in)
				if err != nil {
					t.Fatalf("par=%d: %v", par, err)
				}
				checkAssignment(t, in, a)
				fp := a.Fingerprint()
				if par == 1 {
					wantFP, wantStats = fp, cram.Stats()
					if tc.shards > 1 && wantStats.ShardsPruned == 0 {
						t.Fatal("sharded case pruned no shard: ShardsPruned is compared vacuously")
					}
					continue
				}
				if fp != wantFP {
					t.Errorf("par=%d: assignment differs from serial run", par)
				}
				if got := cram.Stats(); got != wantStats {
					t.Errorf("par=%d: stats differ from serial run:\n got %+v\nwant %+v", par, got, wantStats)
				}
			}
		})
	}
}

// TestFeasEngineMatchesFromScratch fuzzes the pool's probes against the
// from-scratch reference: random removed sets and merged additions, with
// occasional commits in between so the in-place splice and the reuse of the
// one scratch pack are exercised too; every probe must give the reference's
// answer, and every commit must leave the units a sort of the modified pool
// would. The pool is duplicated — every subscription appears one to four
// times under distinct IDs — so that the replay stream is runs of one
// content; the oracle compiles against a table of its own.
func TestFeasEngineMatchesFromScratch(t *testing.T) {
	seedUnits, pubs := testWorkload(7, 6, 12, 10, 100)
	rng := rand.New(rand.NewSource(99))
	var units []*Unit
	for _, u := range seedUnits {
		units = append(units, u)
		for c := rng.Intn(4); c > 0; c-- {
			dup := *u
			dup.ID = fmt.Sprintf("%s-dup%d", u.ID, c)
			dup.Members = []Member{{SubID: dup.ID}}
			dup.Profile = u.Profile.Clone()
			units = append(units, &dup)
		}
	}
	brokers := sortBrokersByCapacity(testBrokers(8, 18_000, stdDelay()))
	p := poolOf(units, brokers, newPublisherTable(pubs, units))
	if len(units) == len(seedUnits) {
		t.Fatal("the pool has no duplicates")
	}

	feasYes, feasNo, commits := 0, 0, 0
	for trial := 0; trial < 240; trial++ {
		// One hypothetical modification of the current pool and the
		// from-scratch answer for it.
		var parts, added, mod []*Unit
		k := 1 + rng.Intn(40)
		removed := make(map[*Unit]bool)
		units := poolUnits(p)
		for len(parts) < k && len(parts) < len(units) {
			u := units[rng.Intn(len(units))]
			if removed[u] {
				continue
			}
			removed[u] = true
			parts = append(parts, u)
		}
		if trial%7 != 0 { // every 7th probe is removal-only
			added = append(added, MergeUnits(fmt.Sprintf("probe-%d", trial), parts...))
		}
		for _, u := range units {
			if !removed[u] {
				mod = append(mod, u)
			}
		}
		mod = sortUnitsByBandwidthDesc(append(mod, added...))
		want := feasibleFirstFit(mod, brokers, pubs)
		if want {
			feasYes++
		} else {
			feasNo++
		}
		ch := p.stage(parts, added)
		if got, _ := p.probe(ch); got != want {
			t.Fatalf("trial %d: pool probe=%v, from-scratch=%v (removed=%d, added=%d)",
				trial, got, want, len(parts), len(added))
		}

		// Occasionally commit a feasible modification.
		if want && trial%9 == 3 {
			if err := p.commit(ch); err != nil {
				t.Fatalf("trial %d: commit: %v", trial, err)
			}
			if !slices.Equal(poolUnits(p), mod) {
				t.Fatalf("trial %d: committed pool is not the sorted modified pool", trial)
			}
			commits++
		}
	}
	if feasYes == 0 || feasNo == 0 || commits == 0 {
		t.Fatalf("one-sided fuzz coverage: %d feasible, %d infeasible, %d commits", feasYes, feasNo, commits)
	}
	before := poolUnits(p)
	if err := p.commit(p.stage([]*Unit{before[0], {ID: "stranger"}}, nil)); err == nil || !slices.Equal(poolUnits(p), before) {
		t.Fatalf("commit of a unit the pool does not hold: err=%v, pool changed=%v", err, !slices.Equal(poolUnits(p), before))
	}
}

var cramUnitID = regexp.MustCompile(`^cram-u(\d+)$`)

// TestCRAMUnitIDsStableAndDense is the regression test for the probe-time
// ID-minting bug: binary-search probes used to mint cram-u IDs, so the
// committed IDs depended on how many infeasible probes ran. IDs must now be
// identical across equivalent runs and parallelism levels, and dense: every
// minted index is at most ClustersAccepted (one mint per accepted
// clustering).
func TestCRAMUnitIDsStableAndDense(t *testing.T) {
	in := stdInput(t)
	collect := func(par int) (map[string]bool, CRAMStats) {
		cram := &CRAM{Metric: bitvector.MetricIOS, Parallelism: par}
		a, err := cram.Allocate(in)
		if err != nil {
			t.Fatal(err)
		}
		ids := make(map[string]bool)
		for _, us := range a.ByBroker {
			for _, u := range us {
				if cramUnitID.MatchString(u.ID) {
					ids[u.ID] = true
				}
			}
		}
		return ids, cram.Stats()
	}
	ids1, stats := collect(1)
	if len(ids1) == 0 {
		t.Fatal("no merged cram-u units produced; workload too easy for the test")
	}
	for id := range ids1 {
		n, _ := strconv.Atoi(cramUnitID.FindStringSubmatch(id)[1])
		if n > stats.ClustersAccepted {
			t.Errorf("unit %s exceeds ClustersAccepted=%d: an ID was minted by a non-committed probe",
				id, stats.ClustersAccepted)
		}
	}
	for _, par := range []int{2, 8} {
		ids, _ := collect(par)
		if len(ids) != len(ids1) {
			t.Fatalf("par=%d: %d merged units, serial had %d", par, len(ids), len(ids1))
		}
		for id := range ids1 {
			if !ids[id] {
				t.Errorf("par=%d: unit ID %s from serial run missing", par, id)
			}
		}
	}
}

// TestCRAMConvergenceNoStarvation asserts the liveness property behind the
// dead-GIF candidate fix: at natural termination, every pair of live GIFs
// with positive closeness (including self-pairs of multi-unit GIFs) must
// have been offered and resolved — i.e. blacklisted, since it is still
// live. A starved pair would be live, positive, and unblacklisted.
func TestCRAMConvergenceNoStarvation(t *testing.T) {
	in := stdInput(t)
	for _, metric := range []bitvector.Metric{bitvector.MetricIOS, bitvector.MetricXor} {
		cram := &CRAM{Metric: metric, ExhaustiveSearch: true}
		r, _, err := cram.run(in)
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range r.live {
			if len(a.units) >= 2 && bitvector.Closeness(metric, a.profile, a.profile) > 0 &&
				!blacklisted(a, a) {
				t.Errorf("metric=%v: self-pair %s never resolved (%d units)", metric, a.id, len(a.units))
			}
			for _, b := range r.live[i+1:] {
				if bitvector.Closeness(metric, a.profile, b.profile) > 0 && !blacklisted(a, b) {
					t.Errorf("metric=%v: live pair (%s, %s) with positive closeness never resolved",
						metric, a.id, b.id)
				}
			}
		}
	}
}
