package allocation

import (
	"cmp"
	"container/heap"
	"fmt"
	"slices"
	"strings"

	"github.com/greenps/greenps/internal/bitvector"
	"github.com/greenps/greenps/internal/parwork"
	"github.com/greenps/greenps/internal/poset"
)

// CRAM is the Clustering with Resource Awareness and Minimization algorithm
// (Section IV-C). It repeatedly clusters the pair of subscription groups
// with the highest non-zero closeness, accepting each clustering only if
// the resulting unit pool still BIN-PACKs onto the broker pool, and returns
// the last feasible allocation when no further pairing exists.
//
// Three optimizations from the paper are implemented and individually
// switchable for ablation experiments:
//
//  1. GIF grouping — subscriptions with equal bit-vector profiles form a
//     Group of Identical Filters and cluster group-wise.
//  2. Poset search pruning — the closest partner of each GIF is found with
//     a pruned BFS over the relationship poset instead of an exhaustive
//     scan.
//  3. One-to-many clustering — when the best pair has an intersect
//     relationship, first try clustering each side with its covered GIFs
//     chosen by greedy set cover (the CGS).
//
// A CRAM value is not safe for concurrent use: Allocate stores run
// statistics retrievable via Stats.
type CRAM struct {
	// Metric selects the closeness metric (INTERSECT, XOR, IOS, IOU).
	Metric bitvector.Metric
	// DisableGIFGrouping turns off optimization 1 (every subscription is
	// its own group; implies exhaustive search, because the poset rejects
	// equal profiles by design).
	DisableGIFGrouping bool
	// ExhaustiveSearch turns off optimization 2 (partner search scans all
	// groups instead of the pruned poset BFS).
	ExhaustiveSearch bool
	// DisableOneToMany turns off optimization 3.
	DisableOneToMany bool
	// Parallelism caps the worker count of the one loop that fans out: the
	// seed phase, which runs every GIF's first partner search, one whole
	// search per work item, before anything has been clustered. Everything
	// else — unit compilation, each later search, every feasibility probe —
	// is serial. 0 or negative means runtime.GOMAXPROCS(0). The seed
	// results are collected in GIF-ID order, so the Assignment and every
	// CRAMStats counter are bit-for-bit identical at any setting —
	// Parallelism is purely a wall-clock knob.
	Parallelism int
	// Shards sets the shard count of the sharded exhaustive partner scan
	// (DESIGN.md §14): GIFs are routed to shards by summary signature and
	// a shard whose aggregate envelope bound cannot beat the incumbent is
	// pruned wholesale, its members tallied without per-pair bound work.
	// 0 picks automatically (1 below autoShardMinGIFs GIFs, ~√n above,
	// capped at maxAutoShards); 1 disables sharding. Sharding only
	// engages on the exhaustive scan with bound pruning enabled. The
	// returned plan and every stat except ShardsPruned are bit-for-bit
	// identical at any shard count (ShardsPruned necessarily depends on
	// the shard layout).
	Shards int
	// SpillBudgetBytes caps the in-memory working set of the seed-phase
	// candidate set. 0 keeps all candidates in the heap; a positive
	// budget routes them through an external sorter (internal/extsort)
	// that spills sorted runs to temp files past the budget and merges
	// them back during the clustering loop. The candidate pop sequence —
	// and therefore the plan and every stat except SpilledRuns — is
	// identical with or without spilling.
	SpillBudgetBytes int
	// SpillDir receives the spill run files ("" = the OS temp dir).
	SpillDir string

	// maxIterations, when positive, replaces the clustering loop's safety
	// cap of 64×(initial group count + 1), far beyond any convergent run;
	// in-package tests set it to stop a run after k iterations.
	maxIterations int
	// disableBoundPruning turns off the summary-based closeness upper
	// bounds of the exhaustive partner scan (and with them its shards),
	// forcing every considered evaluation to run the exact metric. The
	// bounds are admissible, so the returned plan and every other stat are
	// bit-for-bit identical either way; in-package equivalence tests and
	// BenchmarkPartnerSearchPruned set it. The poset search takes no bounds.
	disableBoundPruning bool

	stats CRAMStats
}

var _ Algorithm = (*CRAM)(nil)

// CRAMStats records the work done by the last Allocate call, feeding the
// E8 ablation experiment.
type CRAMStats struct {
	// InitialUnits is the subscription count entering the algorithm.
	InitialUnits int
	// InitialGIFs is the group count after GIF grouping (equals
	// InitialUnits with grouping disabled, minus empty-profile units).
	InitialGIFs int
	// FinalUnits is the unit count of the returned allocation.
	FinalUnits int
	// ClosenessComputations counts closeness evaluations across all
	// partner searches. This is the counter behind the paper's E8
	// closeness-computation column; set-cover bookkeeping is tallied
	// separately in CoverComputations. Evaluations the exhaustive scan
	// answered by a summary upper bound rather than an exact metric
	// computation are included — the counter tracks how many pairings the
	// searches considered, so the E8 tables read the same whether bound
	// pruning is on or off; the exact-evaluation count is
	// ClosenessComputations − BoundPruned.
	ClosenessComputations int
	// BoundPruned counts the exhaustive scan's considered closeness
	// evaluations that were answered by a ClosenessUpperBound instead of an
	// exact metric call (always 0 in poset mode or with the bounds
	// disabled).
	BoundPruned int
	// CoverComputations counts the DiffCount evaluations of the greedy
	// set cover in one-to-many clustering (Optimization 3). Previously
	// folded into ClosenessComputations, which inflated the E8 closeness
	// counts with non-closeness work.
	CoverComputations int
	// PackAttempts counts allocation feasibility tests: every probe of the
	// pool, the initial one included.
	PackAttempts int
	// ProbesCertified counts the probes answered before any placement, by
	// the pool's capacity certificate at the head of the stream (DESIGN.md
	// §7.1); the rest replayed part of it or all of it.
	ProbesCertified int
	// PlacementsReplayed counts the first-fit placements the probes' replays
	// made, the certificate stopping each as soon as it held.
	PlacementsReplayed int
	// ClustersAccepted and ClustersRejected count clustering attempts.
	ClustersAccepted int
	ClustersRejected int
	// OneToManyApplied counts accepted CGS clusterings.
	OneToManyApplied int
	// ShardsPruned counts shards discarded wholesale by their envelope
	// bound in the sharded exhaustive scan. Their members still appear in
	// ClosenessComputations and BoundPruned (the per-pair bounds would
	// have pruned each of them too), so those counters stay identical at
	// any shard count; ShardsPruned itself is the only shard-layout-
	// dependent stat.
	ShardsPruned int
	// SpilledRuns counts the sorted candidate runs written to disk by the
	// seed-phase spill path (0 when the working set stayed within
	// SpillBudgetBytes or spilling is off). It is the only stat that
	// depends on the memory budget.
	SpilledRuns int
}

// Stats returns the statistics of the last Allocate run.
func (c *CRAM) Stats() CRAMStats { return c.stats }

// gif is a Group of Identical Filters: every unit in the group has exactly
// the same bit-vector profile.
type gif struct {
	id string
	// key is the GIF's entry in cramRun.byKey: the profile's fingerprint,
	// or a per-unit key with GIF grouping disabled.
	key     string
	profile *bitvector.Profile
	// summary condenses profile for the bound-based search pruning. A GIF's
	// profile never changes after creation (merged units land in the GIF
	// whose fingerprint matches, or found a new one), so the summary is
	// taken once and never invalidated.
	summary *bitvector.Summary
	// units are the group's clusters, kept sorted ascending by output
	// bandwidth so the lightest unit is units[0].
	units []*Unit
	node  *poset.Node
	shard int // the GIF's shard in cramRun.shards, set by shardSet.add
	// blPartners and blSelf are the run's one record of rejected pairings:
	// the GIFs whose pairing with this one was rejected, in rejection order,
	// and whether its self-pair was.
	blPartners []*gif
	blSelf     bool
	dropped    bool // set by dropGIF; a dropped GIF never comes back
}

// unitOrder is the order of a GIF's units: bandwidth ascending, then ID, a
// strict total order since unit IDs are unique.
func unitOrder(a, b *Unit) int {
	if c := cmp.Compare(a.Load.Bandwidth, b.Load.Bandwidth); c != 0 {
		return c
	}
	return strings.Compare(a.ID, b.ID)
}

func (g *gif) sortUnits() { slices.SortFunc(g.units, unitOrder) }

// insertUnit places u at its position in the unit order: a binary search
// plus one shift, byte-identical to sortUnits on the appended slice.
func (g *gif) insertUnit(u *Unit) {
	i, _ := slices.BinarySearchFunc(g.units, u, unitOrder)
	g.units = slices.Insert(g.units, i, u)
}

// candidate is a heap entry: a GIF and its best-known partner.
type candidate struct {
	g, p      *gif // p == g for self-pairs
	closeness float64
}

// candBefore is the canonical candidate priority: closeness descending,
// then the GIF's ID, then the partner's — a strict total order shared by the
// heap comparator and the spill stream's record encoding.
func candBefore(a, b candidate) bool {
	if a.closeness != b.closeness {
		return a.closeness > b.closeness
	}
	if a.g.id != b.g.id {
		return a.g.id < b.g.id
	}
	return a.p.id < b.p.id
}

// candHeap is a max-heap of candidates by closeness.
type candHeap []candidate

func (h candHeap) Len() int           { return len(h) }
func (h candHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h candHeap) Less(i, j int) bool { return candBefore(h[i], h[j]) }
func (h *candHeap) Push(x any)        { *h = append(*h, x.(candidate)) }
func (h *candHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// cramRun holds the mutable state of one Allocate call.
type cramRun struct {
	c       *CRAM
	brokers []*BrokerSpec // in trial order
	// pool is the committed unit pool and its feasibility test; commit is
	// the only way it changes, and err the failure of one.
	pool *pool
	err  error
	// exhaustive is fixed for the run: partner searches scan every GIF and
	// no poset is kept (ExhaustiveSearch, or grouping disabled).
	exhaustive bool

	byKey map[string]*gif // gif.key -> gif
	// live holds the live GIFs in ID (string) order, the order of the seed
	// phase and every exhaustive scan, and is the run's only index by ID;
	// gifFor and dropGIF keep it sorted.
	live []*gif
	ps   *poset.Poset
	heap candHeap
	// shards is the GIF pool sharded by summary signature for wholesale
	// envelope pruning of the exhaustive scan; nil when sharding is
	// inactive (poset search, bound pruning disabled, or a single shard).
	shards *shardSet
	// spill, when non-nil, routes the seed-phase candidates through the
	// external sorter instead of the heap; the main loop then merges the
	// sorted stream with the overlay heap of post-seed candidates.
	spill    *candSpill
	nextGIF  int
	nextUnit int
	// scan is the exhaustive scan's scratch for every search after the seed
	// phase, all of them serial; the seed phase gives each chunk its own.
	scan scanScratch
}

// scanScratch is the per-search storage of one exhaustive partner scan, one
// entry per scanned GIF, so that a search reuses the last one's instead of
// allocating a pool's worth per search. One goroutine at a time: a scratch is
// never shared between concurrent searches.
type scanScratch struct {
	skip     []bool
	ubs      []float64
	live     []*gif // the sharded scan's surviving GIFs (shardSurvivors)
	survived []bool // per shard, whether shardSurvivors kept it
}

// sized returns skip and ubs at length n, grown when the scratch is too
// small; skip is wholly overwritten by the caller, ubs only where skip is
// false, which is all the scan reads.
func (sc *scanScratch) sized(n int) (skip []bool, ubs []float64) {
	if cap(sc.skip) < n {
		sc.skip, sc.ubs = make([]bool, n), make([]float64, n)
	}
	return sc.skip[:n], sc.ubs[:n]
}

// blacklisted reports whether the pairing of a and b was rejected, reading
// the shorter of the two partner lists.
func blacklisted(a, b *gif) bool {
	if a == b {
		return a.blSelf
	}
	if len(b.blPartners) < len(a.blPartners) {
		a, b = b, a
	}
	return slices.Contains(a.blPartners, b)
}

// noteBlacklist records a rejected pairing on its GIFs: the exhaustive scan
// skips g's blacklisted partners, and tallies a wholesale-pruned shard's, in
// O(partners of g).
func noteBlacklist(a, b *gif) {
	if a == b {
		a.blSelf = true
		return
	}
	a.blPartners = append(a.blPartners, b)
	b.blPartners = append(b.blPartners, a)
}

// gifIndex is the position of the GIF ID in gifs, a slice in ID order, and
// whether it is there.
func gifIndex(gifs []*gif, id string) (int, bool) {
	return slices.BinarySearchFunc(gifs, id, func(g *gif, id string) int { return strings.Compare(g.id, id) })
}

// searchMax returns a k in [lo, hi] for which packs(k) holds, or 0 when it
// finds none. It probes hi first and returns it when it packs: the whole
// group nearly always fits, and a binary search would climb to it one probe
// per halving. Otherwise it binary-searches [lo, hi], answering hi from the
// probe already made. First-fit is not monotone in k, so a binary search
// may miss the largest feasible k; this one returns what the plain binary
// search returns whenever hi does not pack, and hi, the largest, whenever
// it does. No k is probed twice.
func searchMax(lo, hi int, packs func(k int) bool) int {
	if lo > hi {
		return 0
	}
	if packs(hi) {
		return hi
	}
	top, best := hi, 0
	for lo <= hi {
		if k := (lo + hi) / 2; k != top && packs(k) {
			best, lo = k, k+1
		} else {
			hi = k - 1
		}
	}
	return best
}

// Allocate implements Algorithm.
func (c *CRAM) Allocate(in *Input) (*Assignment, error) {
	_, a, err := c.run(in)
	return a, err
}

// run executes the algorithm, additionally returning the final run state so
// in-package tests can verify convergence properties (e.g. that every live
// GIF pair with positive closeness was offered and resolved).
func (c *CRAM) run(in *Input) (*cramRun, *Assignment, error) {
	r, err := c.start(in)
	if err != nil {
		return nil, nil, err
	}
	defer r.spill.close()
	a, err := r.cluster()
	if err != nil {
		return nil, nil, err
	}
	return r, a, nil
}

// gifFor returns the GIF the unit belongs to (Optimization 1: one per
// profile fingerprint; one per unit with grouping disabled), registering a
// new, empty one when there is none yet.
func (r *cramRun) gifFor(u *Unit) (g *gif, created bool) {
	key := "unit:" + u.ID
	if !r.c.DisableGIFGrouping {
		key = u.Profile.FingerprintKey()
	}
	if g = r.byKey[key]; g != nil {
		return g, false
	}
	r.nextGIF++
	prof := u.Profile.Clone()
	g = &gif{id: fmt.Sprintf("g%d", r.nextGIF), key: key, profile: prof, summary: bitvector.Summarize(prof)}
	r.byKey[key] = g
	i, _ := gifIndex(r.live, g.id)
	r.live = slices.Insert(r.live, i, g)
	return g, true
}

// start is the first half of run: it ingests the input, tests the
// unclustered pool, builds the search structures, and seeds the candidate
// heap (or spill) with every GIF's best partner. The caller closes r.spill.
func (c *CRAM) start(in *Input) (*cramRun, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if c.Metric == 0 {
		return nil, fmt.Errorf("CRAM: no closeness metric configured")
	}
	c.stats = CRAMStats{InitialUnits: len(in.Units)}

	r := &cramRun{
		c:          c,
		exhaustive: c.ExhaustiveSearch || c.DisableGIFGrouping,
		byKey:      make(map[string]*gif),
		ps:         poset.New(),
	}

	// Group units into GIFs (Optimization 1).
	for _, u := range in.Units {
		if u.Profile.Empty() {
			continue // packed with the pool but never clustered
		}
		g, _ := r.gifFor(u)
		g.units = append(g.units, u)
	}
	for _, g := range r.live {
		g.sortUnits()
	}
	c.stats.InitialGIFs = len(r.live)

	// Ingest the pool: every input unit compiled against the run's publisher
	// table up front. The table lives exactly as long as this call.
	r.brokers = sortBrokersByCapacity(in.Brokers)
	r.pool = newPool(in.Units, r.brokers, newPublisherTable(in.Publishers, in.Units))

	// Initial allocation test without clustering (the algorithm terminates
	// immediately if the raw pool does not fit).
	if !r.probe(r.pool.stage(nil, nil)) {
		return nil, fmt.Errorf("CRAM: initial BIN PACKING of %d units failed: insufficient broker resources", len(in.Units))
	}

	// Build the poset (unless running exhaustively).
	if !r.exhaustive {
		for _, g := range r.live {
			node, err := r.ps.Insert(g.id, g.profile, g)
			if err != nil {
				return nil, fmt.Errorf("CRAM: poset insert: %w", err)
			}
			g.node = node
		}
	}

	// Shard the pool for wholesale envelope pruning of the exhaustive
	// scan (DESIGN.md §14). The shard count is fixed for the run.
	if r.exhaustive && !c.disableBoundPruning {
		r.shards = newShardSet(shardCount(c.Shards, len(r.live)))
		if r.shards != nil {
			for _, g := range r.live {
				r.shards.add(g)
			}
			r.shards.freshen()
		}
	}

	// Seed the candidate heap with every GIF's best partner, the searches
	// fanned out across the workers — the run's only parallel loop. No run
	// state mutates during the fan-out, and the heap comparator is a strict
	// total order over (closeness, GIF ID, partner ID), so pushing the
	// collected candidates in GIF-ID order yields the same pop sequence as
	// the serial seed at any worker count.
	seed := r.live
	found := make([]search, len(seed))
	parwork.Run(len(seed), parwork.Workers(c.Parallelism), func(lo, hi int) {
		var scan scanScratch // this chunk's own
		for i := lo; i < hi; i++ {
			found[i] = r.bestPartner(seed[i], &scan)
		}
	})
	if c.SpillBudgetBytes > 0 {
		// The spill resolves its records' IDs in a copy of the seed GIFs:
		// every record names two of them, and r.live changes under it.
		r.spill = newCandSpill(c.SpillBudgetBytes, c.SpillDir, slices.Clone(seed))
	}
	for _, s := range found {
		c.stats.addSearch(s)
		if s.best.closeness == 0 {
			continue
		}
		if r.spill != nil {
			if err := r.spill.add(s.best); err != nil {
				r.spill.close()
				return nil, fmt.Errorf("CRAM: candidate spill: %w", err)
			}
		} else {
			heap.Push(&r.heap, s.best)
		}
	}
	if r.spill != nil {
		if err := r.spill.finish(); err != nil {
			r.spill.close()
			return nil, fmt.Errorf("CRAM: candidate spill: %w", err)
		}
		c.stats.SpilledRuns = r.spill.runs
	}
	return r, nil
}

// cluster is the second half of run: the clustering loop over the
// candidates, then the final pack of the pool it leaves.
func (r *cramRun) cluster() (*Assignment, error) {
	c := r.c
	maxIter := c.maxIterations
	if maxIter <= 0 {
		maxIter = 64 * (len(r.live) + 1)
	}

	for iter := 0; iter < maxIter; iter++ {
		cand, ok, err := r.nextCand()
		if err != nil {
			return nil, fmt.Errorf("CRAM: candidate spill: %w", err)
		}
		if !ok {
			break
		}
		g, p := cand.g, cand.p
		if g.dropped {
			// The owning GIF was consumed by an earlier clustering, but
			// the partner may be live with no heap entry of its own (its
			// last pushBest can have found nothing while this stale entry
			// still represented the pair). Re-offer it so no live GIF
			// with a positive-closeness partner is starved.
			if !p.dropped && p != g {
				r.pushBest(p)
			}
			continue
		}
		if p.dropped || blacklisted(g, p) || (g == p && len(g.units) < 2) {
			// Stale candidate: recompute this GIF's best partner.
			r.pushBest(g)
			continue
		}
		accepted := r.clusterPair(g, p)
		if r.err != nil {
			return nil, fmt.Errorf("CRAM: %w", r.err)
		}
		if accepted {
			c.stats.ClustersAccepted++
		} else {
			c.stats.ClustersRejected++
			noteBlacklist(g, p)
			r.pushBest(g)
			if p != g {
				r.pushBest(p)
			}
		}
	}

	// Materialize the final (feasible by construction) allocation.
	a, err := packFirstFit(r.pool.units, r.pool.stream, r.brokers, r.pool.table)
	if err != nil {
		// Cannot happen: every committed pool passed the feasibility test.
		return nil, fmt.Errorf("CRAM: final pack of feasible pool failed: %w", err)
	}
	c.stats.FinalUnits = len(r.pool.units)
	return a, nil
}

// nextCand pops the highest-priority candidate across the two sources:
// the spilled seed stream (already in candBefore order) and the overlay
// heap of post-seed candidates. Ties — possible only for bit-identical
// candidates — go to the stream, which is one of the valid adjacent pop
// orders of the duplicate pair; without a spill this is exactly the old
// heap pop.
func (r *cramRun) nextCand() (candidate, bool, error) {
	if r.spill != nil && r.spill.headOK {
		if r.heap.Len() == 0 || !candBefore(r.heap[0], r.spill.head) {
			cd := r.spill.head
			if err := r.spill.advance(); err != nil {
				return candidate{}, false, err
			}
			return cd, true, nil
		}
	}
	if r.heap.Len() > 0 {
		return heap.Pop(&r.heap).(candidate), true, nil
	}
	return candidate{}, false, nil
}

// pushBest computes the GIF's best admissible partner and pushes it onto
// the heap. GIFs with no positive-closeness partner push nothing.
// pushBest runs between commits, so it is the safe point to rebuild any
// shard envelopes dirtied by the preceding one before the search reads them.
func (r *cramRun) pushBest(g *gif) {
	if r.shards != nil {
		r.shards.freshen()
	}
	s := r.bestPartner(g, &r.scan)
	r.c.stats.addSearch(s)
	if s.best.closeness > 0 {
		heap.Push(&r.heap, s.best)
	}
}

// search is one partner search's result: the best candidate, with
// closeness 0 when there is none, the closeness evaluations the search
// considered, how many of those the exhaustive scan answered by a summary
// bound instead of an exact metric call, and how many shards the sharded
// scan discarded wholesale.
type search struct {
	best                  candidate
	comps, pruned, shards int
}

// addSearch adds a search's work to the stats.
func (st *CRAMStats) addSearch(s search) {
	st.ClosenessComputations += s.comps
	st.BoundPruned += s.pruned
	st.ShardsPruned += s.shards
}

// bestPartner searches for the GIF's best admissible partner without
// touching run state beyond the caller's scan scratch, so the seed phase can
// run the searches of distinct GIFs on different workers. The exhaustive
// scan reduces in GIF-ID order, first strict maximum winning, so the
// returned candidate and the comps/pruned counts are identical at any shard
// count (shards alone depends on the shard layout).
func (r *cramRun) bestPartner(g *gif, scan *scanScratch) (s search) {
	// Self-pair: the equal relationship pairs a GIF with itself whenever it
	// holds more than one unit (Optimization 1's equal case).
	if len(g.units) >= 2 && !blacklisted(g, g) {
		c := bitvector.Closeness(r.c.Metric, g.profile, g.profile)
		s.comps++
		if c > 0 {
			s.best = candidate{g: g, p: g, closeness: c}
		}
	}
	if !r.exhaustive {
		res := r.ps.SearchClosest(g.profile, r.c.Metric, func(n *poset.Node) bool {
			p := n.Payload.(*gif)
			return p == g || blacklisted(g, p)
		})
		s.comps += res.Computations
		if res.Best != nil && res.Closeness > s.best.closeness {
			s.best = candidate{g: g, p: res.Best.Payload.(*gif), closeness: res.Closeness}
		}
		return s
	}

	// t0 is the incumbent threshold of both pruning rules: only a strictly
	// greater closeness replaces the self-pair.
	t0 := s.best.closeness
	live := r.live
	if r.shards != nil {
		// Wholesale shard pruning against t0, so a pruned shard's members
		// are exactly pairings the per-pair rule would have pruned
		// individually (and none could have anchored). The surviving
		// members keep r.live's ID order, so the reduction's tie-break
		// stays canonical.
		var bulk int
		live, bulk, s.shards = r.shardSurvivors(g, t0, scan)
		s.comps += bulk
		s.pruned += bulk
	}
	// Skip g and its blacklisted partners, found by binary search.
	skip, ubs := scan.sized(len(live))
	for i, p := range live {
		skip[i] = p == g
	}
	for _, p := range g.blPartners {
		if i, ok := gifIndex(live, p.id); ok {
			skip[i] = true
		}
	}
	anchor, anchorC := -1, 0.0
	if r.c.disableBoundPruning {
		ubs = nil
	} else {
		anchor, anchorC = r.boundPruneScan(g, live, skip, ubs, t0)
	}
	for i, p := range live {
		if skip[i] {
			continue
		}
		s.comps++
		c := anchorC
		if i != anchor {
			if ubs != nil && (ubs[i] <= t0 || ubs[i] < anchorC) {
				s.pruned++
				continue
			}
			c = bitvector.Closeness(r.c.Metric, g.profile, p.profile)
		}
		if c > s.best.closeness {
			s.best = candidate{g: g, p: p, closeness: c}
		}
	}
	return s
}

// boundPruneScan is the bound stage of the exhaustive partner scan
// (anchored bound pruning, DESIGN.md §9). It takes the summary-based
// closeness upper bound of every admissible pairing into ubs (the caller's,
// len(live) long; entries of skipped pairings are left as they were), picks
// the anchor — the first ID with the highest bound above the incumbent
// threshold t0 — and evaluates the anchor's exact closeness. The caller then
// prunes every other pairing whose bound proves it cannot change the scan's
// outcome:
//
//   - ub <= t0: the reduction only replaces the incumbent on a strictly
//     greater closeness, and the true value is at most ub.
//   - ub < anchorC (strict): the true value is strictly below the anchor's
//     exact closeness, so it is not an achiever of the scan's maximum; the
//     strictness preserves the first-ID tie-break among achievers.
//
// Every achiever of the true maximum survives, so reducing the survivors
// in ID order returns exactly the candidate the unpruned scan would
// (derivation in DESIGN.md §9). The pruned set depends only on the bounds,
// t0 and the one anchor evaluation — never on a running best — and it is
// what BoundPruned, the shard accounting and BENCH_scale.json record.
func (r *cramRun) boundPruneScan(g *gif, live []*gif, skip []bool, ubs []float64, t0 float64) (anchor int, anchorC float64) {
	anchor = -1
	for i, p := range live {
		if skip[i] {
			continue
		}
		ubs[i] = bitvector.ClosenessUpperBound(r.c.Metric, g.summary, p.summary)
		if ubs[i] > t0 && (anchor < 0 || ubs[i] > ubs[anchor]) {
			anchor = i
		}
	}
	if anchor >= 0 {
		anchorC = bitvector.Closeness(r.c.Metric, g.profile, live[anchor].profile)
	}
	return anchor, anchorC
}

// clusterPair attempts the clustering dictated by the relationship between
// the two GIFs (Optimization 1's case analysis), running the allocation
// test before committing. It reports whether a clustering was committed.
func (r *cramRun) clusterPair(a, b *gif) bool {
	if a == b {
		return r.clusterSelf(a)
	}
	rel := bitvector.Relate(a.profile, b.profile)
	switch rel {
	case bitvector.RelIntersect, bitvector.RelEmpty:
		// RelEmpty reaches here only under the XOR metric, which assigns
		// positive closeness to empty relations; the paper observes such
		// pairs do get clustered. Optimization 3 applies to intersecting
		// pairs first.
		if rel == bitvector.RelIntersect && !r.c.DisableOneToMany && !r.exhaustive {
			if r.tryCoveredSet(a, b) || r.tryCoveredSet(b, a) {
				r.c.stats.OneToManyApplied++
				return true
			}
		}
		return r.clusterLightest(a, b)
	case bitvector.RelSuperset:
		return r.clusterCovering(a, b)
	case bitvector.RelSubset:
		return r.clusterCovering(b, a)
	default:
		// Equal across distinct GIFs is impossible with grouping on; with
		// grouping off, treat as a plain merge.
		return r.clusterLightest(a, b)
	}
}

// clusterSelf merges units within one GIF: the largest cluster of its
// lightest units that still allocates.
func (r *cramRun) clusterSelf(g *gif) bool {
	return len(g.units) >= 2 && r.mergeLargest(2, len(g.units), []take{{g, 0}}, g)
}

// clusterLightest merges the lightest unit of each GIF into a new unit
// whose profile is the OR of the two (the intersect case of Optimization 1
// and the generic pairwise case).
func (r *cramRun) clusterLightest(a, b *gif) bool {
	return r.mergeLargest(1, 1, []take{{a, 1}, {b, 1}}, nil)
}

// clusterCovering handles the superset/subset case: the lightest unit of
// the covering GIF clusters with as many of the covered GIF's lightest units
// as still allocate. The merged profile equals the covering GIF's profile,
// so the merged unit joins the covering GIF.
func (r *cramRun) clusterCovering(covering, covered *gif) bool {
	return r.mergeLargest(1, len(covered.units), []take{{covering, 1}, {covered, 0}}, covering)
}

// tryCoveredSet implements Optimization 3: build the Covered GIF Set of the
// parent by greedy set cover over its poset descendants, and commit the
// parent-CGS cluster when it is allocatable and closer than the original
// pair.
func (r *cramRun) tryCoveredSet(parent, other *gif) bool {
	if parent.node == nil {
		return false
	}
	descendants := r.ps.CoveredBy(parent.node)
	if len(descendants) == 0 {
		return false
	}
	pairLoad := parent.units[0].Load.Bandwidth + other.units[0].Load.Bandwidth

	// Greedy set cover: repeatedly take the covered GIF contributing the
	// most bits not yet in the CGS, stopping when the next addition would
	// push the cluster's load past the original pair's.
	var pool []*gif
	for _, n := range descendants {
		dg, ok := n.Payload.(*gif)
		if !ok || dg == nil {
			continue
		}
		if dg.dropped {
			continue
		}
		pool = append(pool, dg)
	}
	if len(pool) == 0 {
		return false
	}
	cgsProfile := bitvector.NewProfile(parent.profile.Capacity())
	var cgs []*gif
	load := parent.units[0].Load.Bandwidth
	for len(pool) > 0 {
		bestIdx, bestNew := -1, 0
		for i, pg := range pool {
			nb := bitvector.DiffCount(pg.profile, cgsProfile)
			r.c.stats.CoverComputations++
			if nb > bestNew {
				bestNew = nb
				bestIdx = i
			}
		}
		if bestIdx < 0 {
			break // no remaining GIF adds coverage
		}
		g := pool[bestIdx]
		if load+g.units[0].Load.Bandwidth > pairLoad && len(cgs) > 0 {
			break // would exceed the original pair's load requirement
		}
		load += g.units[0].Load.Bandwidth
		cgs = append(cgs, g)
		cgsProfile.Or(g.profile)
		pool = append(pool[:bestIdx], pool[bestIdx+1:]...)
	}
	if len(cgs) == 0 {
		return false
	}
	// Validity: the CGS must be closer to the parent than the original
	// pair was.
	pairCloseness := bitvector.Closeness(r.c.Metric, parent.profile, other.profile)
	cgsCloseness := bitvector.Closeness(r.c.Metric, cgsProfile, parent.profile)
	r.c.stats.ClosenessComputations += 2
	if cgsCloseness <= pairCloseness {
		return false
	}
	// Merge the parent's lightest unit with the lightest unit of every CGS
	// member. The merged profile equals the parent's (CGS members are
	// covered), so the merged unit joins the parent GIF.
	takes := []take{{parent, 1}}
	for _, g := range cgs {
		takes = append(takes, take{g, 1})
	}
	return r.mergeLargest(1, 1, takes, parent)
}

// probe is the run's feasibility test of a staged change, counted.
func (r *cramRun) probe(ch change) bool {
	packs, placed := r.pool.probe(ch)
	r.c.stats.PackAttempts++
	r.c.stats.PlacementsReplayed += placed
	if placed == 0 {
		r.c.stats.ProbesCertified++
	}
	return packs
}

// take is one GIF's share of a clustering: its n lightest units.
type take struct {
	g *gif
	n int
}

// mergeLargest is CRAM's one clustering step. The takes' units, in take
// order, merge into one unit, named with the cram-u ID its commit mints; the
// last take's n is the cluster size searchMax picks from [lo, hi] (lo == hi
// for a fixed cluster). Each size is merged and staged once and probed; the
// committed change is the one staged for the last probe that packed, which
// is the size searchMax returns. The takes then leave their GIFs and the
// merged unit is filed under home (move). It reports whether a clustering
// was committed.
func (r *cramRun) mergeLargest(lo, hi int, takes []take, home *gif) bool {
	id := fmt.Sprintf("cram-u%d", r.nextUnit+1)
	last := &takes[len(takes)-1]
	var staged change
	var merged *Unit
	k := searchMax(lo, hi, func(k int) bool {
		last.n = k
		var parts []*Unit
		for _, t := range takes {
			parts = append(parts, t.g.units[:t.n]...)
		}
		m := MergeUnits(id, parts...)
		ch := r.pool.stage(parts, []*Unit{m})
		if !r.probe(ch) {
			return false
		}
		staged, merged = ch, m
		return true
	})
	if k == 0 {
		return false
	}
	if err := r.pool.commit(staged); err != nil {
		r.err = err // a removed unit the pool does not hold: no validated input leads here
		return false
	}
	r.nextUnit++
	last.n = k
	r.move(takes, merged, home)
	return true
}

// move takes each take's units out of its GIF, which is dropped when emptied
// and re-searched otherwise, and files u under home — or, with home nil,
// under the GIF matching its profile, created with its shard entry and poset
// node when new — which then re-searches. home is re-searched only once it
// holds u. A poset that refuses the new node (its ID is taken, which no run
// of this code leads to) fails the run through err.
func (r *cramRun) move(takes []take, u *Unit, home *gif) {
	for _, t := range takes {
		t.g.units = slices.Delete(t.g.units, 0, t.n)
		if t.g == home {
			continue
		}
		if len(t.g.units) == 0 {
			r.dropGIF(t.g)
		} else {
			r.pushBest(t.g)
		}
	}
	if home == nil {
		g, created := r.gifFor(u)
		if created {
			if r.shards != nil {
				// The new member makes its shard's envelope stale on the
				// unsound side; the dirty flag defers the rebuild to the next
				// pushBest, which runs before any search can read it.
				r.shards.add(g)
			}
			if !r.exhaustive {
				// Equal profiles always share a fingerprint, so the byKey miss
				// guarantees this profile is new to the poset.
				node, err := r.ps.Insert(g.id, g.profile, g)
				if err != nil {
					if r.err == nil {
						r.err = fmt.Errorf("poset insert for new GIF %s: %w", g.id, err)
					}
					return
				}
				g.node = node
			}
		}
		home = g
	}
	home.insertUnit(u)
	r.pushBest(home)
}

// dropGIF removes an emptied GIF from all indices. A poset that does not
// hold the GIF's node fails the run through err.
func (r *cramRun) dropGIF(g *gif) {
	delete(r.byKey, g.key)
	g.dropped = true
	if i, ok := gifIndex(r.live, g.id); ok {
		r.live = slices.Delete(r.live, i, i+1)
	}
	if r.shards != nil {
		// Removal leaves the shard envelope stale on the admissible side
		// (it can only prune less), so only the live count updates.
		r.shards.drop(g)
	}
	if g.node != nil {
		g.node = nil
		if err := r.ps.Remove(g.id); err != nil && r.err == nil {
			r.err = fmt.Errorf("poset remove of GIF %s: %w", g.id, err)
		}
	}
}
