package allocation

import (
	"fmt"
	"math"
	"testing"

	"github.com/greenps/greenps/internal/bitvector"
)

// shardTestInput is a workload big enough that GIF grouping still leaves
// a few hundred groups — enough for shard routing to matter and for a
// minimal spill budget to force on-disk runs.
func shardTestInput(t *testing.T) *Input {
	t.Helper()
	units, pubs := testWorkload(7, 8, 60, 10, 100)
	in := &Input{
		Units:      units,
		Brokers:    testBrokers(40, 25_000, stdDelay()),
		Publishers: pubs,
	}
	if err := in.Validate(); err != nil {
		t.Fatalf("shardTestInput invalid: %v", err)
	}
	return in
}

// statsModuloLayout zeroes the two knowingly layout/budget-dependent
// counters so the rest of the stats can be compared exactly.
func statsModuloLayout(s CRAMStats) CRAMStats {
	s.ShardsPruned = 0
	s.SpilledRuns = 0
	return s
}

// TestCRAMShardSpillEquivalence is the tentpole's contract: across shard
// counts {1, 4, 16}, spill budgets {off, minimal}, and worker counts
// {1, 4}, the assignment fingerprint and every stat except ShardsPruned
// and SpilledRuns are bit-for-bit identical — and the sharded/spilled
// configurations actually exercise their machinery (shards pruned, runs
// spilled).
func TestCRAMShardSpillEquivalence(t *testing.T) {
	in := shardTestInput(t)
	for _, metric := range []bitvector.Metric{bitvector.MetricIOS, bitvector.MetricXor} {
		t.Run(metric.String(), func(t *testing.T) {
			base := &CRAM{Metric: metric, ExhaustiveSearch: true, Shards: 1}
			wantA, err := base.Allocate(in)
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			wantFP := wantA.Fingerprint()
			wantStats := statsModuloLayout(base.Stats())
			if base.Stats().ShardsPruned != 0 || base.Stats().SpilledRuns != 0 {
				t.Fatalf("unsharded unspilled baseline reports ShardsPruned=%d SpilledRuns=%d",
					base.Stats().ShardsPruned, base.Stats().SpilledRuns)
			}

			sawShardPrune, sawSpill := false, false
			for _, shards := range []int{1, 4, 16} {
				for _, budget := range []int{0, 4096} {
					for _, par := range []int{1, 4} {
						name := fmt.Sprintf("shards=%d budget=%d par=%d", shards, budget, par)
						c := &CRAM{
							Metric:           metric,
							ExhaustiveSearch: true,
							Shards:           shards,
							SpillBudgetBytes: budget,
							SpillDir:         t.TempDir(),
							Parallelism:      par,
						}
						a, err := c.Allocate(in)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if fp := a.Fingerprint(); fp != wantFP {
							t.Errorf("%s: fingerprint %s != baseline %s", name, fp, wantFP)
						}
						if got := statsModuloLayout(c.Stats()); got != wantStats {
							t.Errorf("%s: stats %+v != baseline %+v", name, got, wantStats)
						}
						if shards > 1 && c.Stats().ShardsPruned > 0 {
							sawShardPrune = true
						}
						if shards == 1 && c.Stats().ShardsPruned != 0 {
							t.Errorf("%s: unsharded run pruned %d shards", name, c.Stats().ShardsPruned)
						}
						if budget > 0 && c.Stats().SpilledRuns > 0 {
							sawSpill = true
						}
						if budget == 0 && c.Stats().SpilledRuns != 0 {
							t.Errorf("%s: unspilled run reports %d runs", name, c.Stats().SpilledRuns)
						}
					}
				}
			}
			if !sawShardPrune {
				t.Error("no sharded configuration pruned a shard wholesale; the workload should partition by publisher")
			}
			if !sawSpill {
				t.Error("no budgeted configuration spilled a run; the candidate set should exceed the minimal budget")
			}
		})
	}
}

// TestCRAMShardedMatchesUnsharded double-checks sharding on the
// canonical small input, where auto-sizing would pick 1 shard: an
// explicit Shards=8 must still reproduce the unsharded run exactly.
// (Poset search is deliberately not compared byte-for-byte here — it
// explores merges in a different order than the exhaustive scan, so
// synthetic unit IDs differ even when placements agree.)
func TestCRAMShardedMatchesUnsharded(t *testing.T) {
	in := stdInput(t)
	ref := &CRAM{Metric: bitvector.MetricIOS, ExhaustiveSearch: true, Shards: 1}
	ra, err := ref.Allocate(in)
	if err != nil {
		t.Fatalf("unsharded: %v", err)
	}
	sharded := &CRAM{Metric: bitvector.MetricIOS, ExhaustiveSearch: true, Shards: 8}
	sa, err := sharded.Allocate(in)
	if err != nil {
		t.Fatalf("sharded: %v", err)
	}
	if ra.Fingerprint() != sa.Fingerprint() {
		t.Errorf("sharded exhaustive fingerprint %s != unsharded %s", sa.Fingerprint(), ra.Fingerprint())
	}
	if statsModuloLayout(ref.Stats()) != statsModuloLayout(sharded.Stats()) {
		t.Errorf("stats diverge: %+v != %+v", sharded.Stats(), ref.Stats())
	}
}

// TestCRAMShardBoundsDisabled pins the gating: with bound pruning off,
// sharding must never engage, whatever Shards says.
func TestCRAMShardBoundsDisabled(t *testing.T) {
	in := stdInput(t)
	c := &CRAM{Metric: bitvector.MetricIOS, ExhaustiveSearch: true, Shards: 16, disableBoundPruning: true}
	ref := &CRAM{Metric: bitvector.MetricIOS, ExhaustiveSearch: true, Shards: 1}
	ca, err := c.Allocate(in)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := ref.Allocate(in)
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats().ShardsPruned != 0 {
		t.Errorf("disableBoundPruning run pruned %d shards", c.Stats().ShardsPruned)
	}
	if c.Stats().BoundPruned != 0 {
		t.Errorf("disableBoundPruning run bound-pruned %d pairs", c.Stats().BoundPruned)
	}
	if ca.Fingerprint() != ra.Fingerprint() {
		t.Errorf("fingerprints differ with pruning disabled: %s != %s", ca.Fingerprint(), ra.Fingerprint())
	}
}

// TestShardRoutingDeterministic pins the router: same summary, same
// shard, every time, and in-range for any count.
func TestShardRoutingDeterministic(t *testing.T) {
	units, pubs := testWorkload(3, 4, 10, 10, 100)
	_ = pubs
	for _, u := range units {
		s := bitvector.Summarize(u.Profile)
		for _, n := range []int{2, 4, 16, 31} {
			a := routeShard(s, n)
			b := routeShard(s, n)
			if a != b {
				t.Fatalf("routeShard not deterministic: %d then %d", a, b)
			}
			if a < 0 || a >= n {
				t.Fatalf("routeShard out of range: %d of %d", a, n)
			}
		}
	}
}

// TestShardScanAllocationFree pins the scan stage of the sharded exhaustive
// search at zero allocations: routeShard, shardSurvivors, and boundPruneScan
// over the surviving GIFs. Every GIF is routed and scanned against the
// incumbent its own search finds, so shards are both kept and pruned
// wholesale.
func TestShardScanAllocationFree(t *testing.T) {
	c := &CRAM{Metric: bitvector.MetricIOS, ExhaustiveSearch: true, Shards: 16}
	r, err := c.start(shardTestInput(t))
	if err != nil {
		t.Fatal(err)
	}
	defer r.spill.close()
	t0 := make([]float64, len(r.live))
	for i, g := range r.live {
		t0[i] = r.bestPartner(g, &r.scan).best.closeness
	}
	pruned, anchored := 0, 0
	scan := func() {
		for i, g := range r.live {
			routeShard(g.summary, r.shards.n)
			live, _, n := r.shardSurvivors(g, t0[i], &r.scan)
			pruned += n
			skip, ubs := r.scan.sized(len(live))
			for j, p := range live {
				skip[j] = p == g
			}
			if anchor, _ := r.boundPruneScan(g, live, skip, ubs, t0[i]); anchor >= 0 {
				anchored++
			}
		}
	}
	if n := testing.AllocsPerRun(10, scan); n != 0 {
		t.Errorf("routeShard + shardSurvivors + boundPruneScan over %d GIFs allocate %v times, want 0", len(r.live), n)
	}
	if pruned == 0 {
		t.Error("no shard was pruned wholesale; the pin does not cover the pruned arm")
	}
	if anchored == 0 {
		t.Error("no scan found an anchor; the pin does not cover the anchor's exact evaluation")
	}
}

// TestShardBulkTally pins what a wholesale-pruned shard adds to the scan's
// tallies: its live members, minus the probe itself, minus the probe's live
// blacklisted partners — a partner counts again once it is dropped, since
// dropping it also takes it out of the live count.
func TestShardBulkTally(t *testing.T) {
	c := &CRAM{Metric: bitvector.MetricIOS, ExhaustiveSearch: true, Shards: 4}
	r, err := c.start(shardTestInput(t))
	if err != nil {
		t.Fatal(err)
	}
	defer r.spill.close()
	g, p := r.live[0], r.live[len(r.live)-1]
	check := func(step string, want int) {
		t.Helper()
		live, bulk, shardsPruned := r.shardSurvivors(g, math.Inf(1), &r.scan)
		if len(live) != 0 || shardsPruned != r.shards.n {
			t.Fatalf("%s: %d survivors and %d of %d shards pruned at t0 = +Inf", step, len(live), shardsPruned, r.shards.n)
		}
		if bulk != want {
			t.Fatalf("%s: bulk tally %d, want %d", step, bulk, want)
		}
	}
	check("fresh", len(r.live)-1)
	noteBlacklist(g, p)
	check("partner blacklisted", len(r.live)-2)
	r.dropGIF(p)
	check("partner dropped", len(r.live)-1)
}

// TestShardCountResolution pins the auto-sizing policy.
func TestShardCountResolution(t *testing.T) {
	cases := []struct{ cfg, gifs, want int }{
		{0, 100, 1},                 // below the floor: unsharded
		{0, autoShardMinGIFs, 64},   // √4096
		{0, 1 << 20, maxAutoShards}, // capped
		{7, 10, 7},                  // explicit wins regardless of size
		{1, 1 << 20, 1},             // explicit 1 disables
	}
	for _, c := range cases {
		if got := shardCount(c.cfg, c.gifs); got != c.want {
			t.Errorf("shardCount(%d, %d) = %d, want %d", c.cfg, c.gifs, got, c.want)
		}
	}
	if newShardSet(1) != nil {
		t.Error("newShardSet(1) should be nil (sharding inactive)")
	}
}

// String names a candidate in test failures.
func (cd candidate) String() string { return fmt.Sprintf("%s/%s@%g", cd.g.id, cd.p.id, cd.closeness) }

// TestCandRecordRoundTrip pins the spill encoding: candBefore order and
// ascending byte order agree on candidates of distinct GIFs, the only ones
// the stream and the heap compare, and byte order refines candBefore on the
// rest; decode inverts encode exactly, and a record naming a GIF outside the
// seed fails to decode.
func TestCandRecordRoundTrip(t *testing.T) {
	seed := []*gif{{id: "g1"}, {id: "g10"}, {id: "g2"}, {id: "g3"}, {id: "g9"}} // ID order
	g1, g10, g2, g3, g9 := seed[0], seed[1], seed[2], seed[3], seed[4]
	cands := []candidate{
		{g: g1, p: g2, closeness: 0.5},
		{g: g1, p: g10, closeness: 0.5},
		{g: g10, p: g2, closeness: 0.5},
		{g: g2, p: g3, closeness: 12.75},
		{g: g2, p: g3, closeness: 1e-9},
		{g: g9, p: g9, closeness: bitvector.XorCap},
	}
	if _, err := decodeCand(encodeCand(nil, candidate{g: g1, p: &gif{id: "g4"}, closeness: 1}), seed); err == nil {
		t.Error("a record naming a GIF outside the seed decoded")
	}
	for _, a := range cands {
		rec := encodeCand(nil, a)
		got, err := decodeCand(rec, seed)
		if err != nil {
			t.Fatalf("decode %v: %v", a, err)
		}
		if got != a {
			t.Fatalf("round trip %v -> %v", a, got)
		}
	}
	for _, a := range cands {
		for _, b := range cands {
			ra, rb := string(encodeCand(nil, a)), string(encodeCand(nil, b))
			if a.g == b.g && candBefore(a, b) && ra >= rb {
				t.Errorf("order mismatch: candBefore(%v, %v) but bytes %q>=%q", a, b, ra, rb)
			}
			if a.g != b.g && candBefore(a, b) != (ra < rb) {
				t.Errorf("order mismatch: candBefore(%v, %v)=%v but bytes %q<%q=%v",
					a, b, candBefore(a, b), ra, rb, ra < rb)
			}
		}
	}
}
