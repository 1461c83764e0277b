package allocation

import (
	"container/heap"
	"fmt"
	"sort"

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
	// DisableBoundPruning turns off the summary-based closeness upper
	// bounds in both partner searches (poset BFS and exhaustive scan),
	// forcing every considered evaluation to run the exact metric. The
	// bounds are admissible, so the returned plan and every other stat are
	// bit-for-bit identical either way (the equivalence tests assert this);
	// the knob exists for those tests and for measuring the pruning win.
	DisableBoundPruning bool
	// MaxIterations caps the clustering loop as a safety net; 0 means
	// 64×(initial group count), far beyond any convergent run.
	MaxIterations int
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
	// separately in CoverComputations. Evaluations answered by a summary
	// upper bound rather than an exact metric computation are included —
	// the counter tracks how many pairings the searches considered, so the
	// E8 tables read the same whether bound pruning is on or off; the
	// exact-evaluation count is ClosenessComputations − BoundPruned.
	ClosenessComputations int
	// BoundPruned counts the considered closeness evaluations that were
	// answered by a ClosenessUpperBound instead of an exact metric call
	// (always 0 with DisableBoundPruning set).
	BoundPruned int
	// CoverComputations counts the DiffCount evaluations of the greedy
	// set cover in one-to-many clustering (Optimization 3). Previously
	// folded into ClosenessComputations, which inflated the E8 closeness
	// counts with non-closeness work.
	CoverComputations int
	// PackAttempts counts allocation feasibility tests: every probe of the
	// pool, the initial one included.
	PackAttempts int
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

// Name implements Algorithm.
func (c *CRAM) Name() string { return "CRAM-" + c.Metric.String() }

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
}

func (g *gif) sortUnits() {
	sort.Slice(g.units, func(i, j int) bool {
		if g.units[i].Load.Bandwidth != g.units[j].Load.Bandwidth {
			return g.units[i].Load.Bandwidth < g.units[j].Load.Bandwidth
		}
		return g.units[i].ID < g.units[j].ID
	})
}

// insertUnit places u at its position in the bandwidth-ascending unit
// order — a binary search plus one shift, replacing the full resort the
// commit sites used to run on every single-unit addition. The order is a
// strict total order (IDs are unique), so the result is byte-identical
// to sortUnits on the appended slice.
func (g *gif) insertUnit(u *Unit) {
	i := sort.Search(len(g.units), func(i int) bool {
		if g.units[i].Load.Bandwidth != u.Load.Bandwidth {
			return g.units[i].Load.Bandwidth > u.Load.Bandwidth
		}
		return g.units[i].ID > u.ID
	})
	g.units = append(g.units, nil)
	copy(g.units[i+1:], g.units[i:])
	g.units[i] = u
}

// removeUnit drops a unit by identity.
func (g *gif) removeUnit(u *Unit) {
	for i, x := range g.units {
		if x == u {
			g.units = append(g.units[:i], g.units[i+1:]...)
			return
		}
	}
}

// candidate is a heap entry: a GIF and its best-known partner.
type candidate struct {
	gifID     string
	partnerID string // equal to gifID for self-pairs
	closeness float64
}

// candBefore is the canonical candidate priority: closeness descending,
// then gifID, then partnerID — a strict total order shared by the heap
// comparator and the spill stream's record encoding.
func candBefore(a, b candidate) bool {
	if a.closeness != b.closeness {
		return a.closeness > b.closeness
	}
	if a.gifID != b.gifID {
		return a.gifID < b.gifID
	}
	return a.partnerID < b.partnerID
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
	c        *CRAM
	capacity int
	brokers  []*BrokerSpec // in trial order
	// pool is the committed unit pool and its feasibility test; commit is
	// the only way it changes, and err the failure of one.
	pool *pool
	err  error
	// exhaustive is fixed for the run: partner searches scan every GIF and
	// no poset is kept (ExhaustiveSearch, or grouping disabled).
	exhaustive bool

	gifs      map[string]*gif
	byKey     map[string]*gif // gif.key -> gif
	ps        *poset.Poset
	blacklist map[gifPair]struct{}
	// blPartners indexes the blacklist per GIF (self-pairs excluded) for
	// the sharded scan's pruned-shard accounting.
	blPartners map[string][]string
	heap       candHeap
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
	// gifIDs caches the sorted live GIF IDs for exhaustive scans.
	gifIDs      []string
	gifIDsDirty bool
	// scan is the exhaustive scan's scratch for every search after the seed
	// phase, all of them serial; the seed phase gives each chunk its own.
	scan scanScratch
}

// scanScratch is the per-search storage of one exhaustive partner scan, one
// entry per scanned GIF, so that a search reuses the last one's instead of
// allocating a pool's worth per search. One goroutine at a time: a scratch is
// never shared between concurrent searches.
type scanScratch struct {
	skip []bool
	ubs  []float64
	ids  []string // the sharded scan's surviving IDs (shardSurvivors)
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

// gifPair is the blacklist key: two GIF IDs normalized so a <= b. A
// struct key keeps the clustering inner loop's blacklist probes
// allocation-free — the former string key concatenated a+"|"+b on every
// lookup, one garbage string per probe across millions of probes.
type gifPair struct {
	a, b string
}

func pairKey(a, b string) gifPair {
	if a > b {
		a, b = b, a
	}
	return gifPair{a: a, b: b}
}

func (r *cramRun) blacklisted(a, b string) bool {
	_, ok := r.blacklist[pairKey(a, b)]
	return ok
}

// noteBlacklist records a rejected pairing. The per-GIF partner index
// lets the sharded scan subtract a wholesale-pruned shard's blacklisted
// members from its stats tally in O(partners of g) instead of touching
// every member; self-pairs never appear in the scan, so they are not
// indexed.
func (r *cramRun) noteBlacklist(a, b string) {
	r.blacklist[pairKey(a, b)] = struct{}{}
	if a != b {
		r.blPartners[a] = append(r.blPartners[a], b)
		r.blPartners[b] = append(r.blPartners[b], a)
	}
}

// sortedGIFIDs returns the live GIF IDs in sorted order, cached between
// GIF-set changes (exhaustive partner scans hit this on every search).
func (r *cramRun) sortedGIFIDs() []string {
	if r.gifIDs == nil || r.gifIDsDirty {
		ids := make([]string, 0, len(r.gifs))
		for id := range r.gifs {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		r.gifIDs = ids
		r.gifIDsDirty = false
	}
	return r.gifIDs
}

// commit replaces the removed units by their merged unit in the pool and
// reports whether it took. The pool's refusal — a removed unit it does not
// hold, which no validated input leads to — is kept in err for run to return,
// and nothing commits after it. The poset's refusals (attachUnit, dropGIF)
// take the same path.
func (r *cramRun) commit(removed []*Unit, merged *Unit) bool {
	if r.err == nil {
		r.err = r.pool.commit(removed, []*Unit{merged})
	}
	return r.err == nil
}

// feasible runs the allocation test on the current pool with the given
// hypothetical modification: removed units are skipped and added units are
// merged into the sorted order.
func (r *cramRun) feasible(removed, added []*Unit) bool {
	r.c.stats.PackAttempts++
	return r.pool.probe(removed, added)
}

// searchMaxFeasible runs the binary search shared by clusterSelf and
// clusterCovering: the largest k in [lo, hi] whose hypothetical
// modification mk(k) keeps the pool allocatable, or 0 when none does.
func (r *cramRun) searchMaxFeasible(lo, hi int, mk func(k int) (removed []*Unit, merged *Unit)) int {
	best := 0
	for lo <= hi {
		k := (lo + hi) / 2
		removed, merged := mk(k)
		if r.feasible(removed, []*Unit{merged}) {
			best = k
			lo = k + 1
		} else {
			hi = k - 1
		}
	}
	return best
}

// probeUnitID names every hypothetical merged unit; nothing reads it. A
// committed unit mints its cram-u ID at commit time instead.
const probeUnitID = "probe"

// newUnitID mints a unit ID for a merged cluster.
func (r *cramRun) newUnitID() string {
	r.nextUnit++
	return fmt.Sprintf("cram-u%d", r.nextUnit)
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
	r.gifs[g.id] = g
	r.gifIDsDirty = true
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
		capacity:   in.ProfileCapacity,
		exhaustive: c.ExhaustiveSearch || c.DisableGIFGrouping,
		gifs:       make(map[string]*gif),
		byKey:      make(map[string]*gif),
		ps:         poset.New(),
		blacklist:  make(map[gifPair]struct{}),
		blPartners: make(map[string][]string),
	}

	// Group units into GIFs (Optimization 1).
	for _, u := range in.Units {
		if u.Profile.Empty() {
			continue // packed with the pool but never clustered
		}
		g, _ := r.gifFor(u)
		g.units = append(g.units, u)
	}
	for _, id := range r.sortedGIFIDs() {
		r.gifs[id].sortUnits()
	}
	c.stats.InitialGIFs = len(r.gifs)

	// Ingest the pool: every input unit compiled against the run's publisher
	// table up front. The table lives exactly as long as this call.
	r.brokers = sortBrokersByCapacity(in.Brokers)
	r.pool = newPool(in.Units, r.brokers, newPublisherTable(in.Publishers, in.Units), r.capacity)

	// Initial allocation test without clustering (the algorithm terminates
	// immediately if the raw pool does not fit).
	if !r.feasible(nil, nil) {
		return nil, fmt.Errorf("CRAM: initial BIN PACKING of %d units failed: insufficient broker resources", len(in.Units))
	}

	// Build the poset (unless running exhaustively).
	if !r.exhaustive {
		for _, id := range r.sortedGIFIDs() {
			g := r.gifs[id]
			node, err := r.ps.Insert(g.id, g.profile, g)
			if err != nil {
				return nil, fmt.Errorf("CRAM: poset insert: %w", err)
			}
			g.node = node
		}
	}

	// Shard the pool for wholesale envelope pruning of the exhaustive
	// scan (DESIGN.md §14). The shard count is fixed for the run.
	if r.exhaustive && !c.DisableBoundPruning {
		r.shards = newShardSet(shardCount(c.Shards, len(r.gifs)))
		if r.shards != nil {
			for _, id := range r.sortedGIFIDs() {
				r.shards.add(r.gifs[id])
			}
			r.shards.freshen(r.gifs)
		}
	}

	// Seed the candidate heap with every GIF's best partner, the searches
	// fanned out across the workers — the run's only parallel loop. No run
	// state mutates during the fan-out, and the heap comparator is a strict
	// total order over (closeness, gifID, partnerID), so pushing the
	// collected candidates in GIF-ID order yields the same pop sequence as
	// the serial seed at any worker count.
	heap.Init(&r.heap)
	seedIDs := r.sortedGIFIDs()
	seedCands := make([]*candidate, len(seedIDs))
	seedComps := make([]int, len(seedIDs))
	seedPruned := make([]int, len(seedIDs))
	seedShards := make([]int, len(seedIDs))
	parwork.Run(len(seedIDs), parwork.Workers(c.Parallelism), func(lo, hi int) {
		var scan scanScratch // this chunk's own
		for i := lo; i < hi; i++ {
			seedCands[i], seedComps[i], seedPruned[i], seedShards[i] = r.bestPartner(r.gifs[seedIDs[i]], &scan)
		}
	})
	if c.SpillBudgetBytes > 0 {
		r.spill = newCandSpill(c.SpillBudgetBytes, c.SpillDir)
	}
	for i, cd := range seedCands {
		c.stats.ClosenessComputations += seedComps[i]
		c.stats.BoundPruned += seedPruned[i]
		c.stats.ShardsPruned += seedShards[i]
		if cd == nil {
			continue
		}
		if r.spill != nil {
			if err := r.spill.add(*cd); err != nil {
				r.spill.close()
				return nil, fmt.Errorf("CRAM: candidate spill: %w", err)
			}
		} else {
			heap.Push(&r.heap, *cd)
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
	maxIter := c.MaxIterations
	if maxIter <= 0 {
		maxIter = 64 * (len(r.gifs) + 1)
	}

	for iter := 0; iter < maxIter; iter++ {
		cand, ok, err := r.nextCand()
		if err != nil {
			return nil, fmt.Errorf("CRAM: candidate spill: %w", err)
		}
		if !ok {
			break
		}
		g, okG := r.gifs[cand.gifID]
		p, okP := r.gifs[cand.partnerID]
		if !okG {
			// The owning GIF was consumed by an earlier clustering, but
			// the partner may be live with no heap entry of its own (its
			// last pushBest can have found nothing while this stale entry
			// still represented the pair). Re-offer it so no live GIF
			// with a positive-closeness partner is starved.
			if okP && cand.partnerID != cand.gifID {
				r.pushBest(p)
			}
			continue
		}
		if !okP || r.blacklisted(cand.gifID, cand.partnerID) ||
			(cand.gifID == cand.partnerID && len(g.units) < 2) {
			// Stale candidate: recompute this GIF's best partner.
			r.pushBest(g)
			continue
		}
		if cand.closeness <= 0 {
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
			r.noteBlacklist(g.id, p.id)
			r.pushBest(g)
			if p != g {
				r.pushBest(p)
			}
		}
	}

	// Materialize the final (feasible by construction) allocation.
	a, err := packFirstFit(r.pool.units, r.pool.stream, r.brokers, r.pool.table, r.capacity)
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
		r.shards.freshen(r.gifs)
	}
	best, comps, pruned, shardsPruned := r.bestPartner(g, &r.scan)
	r.c.stats.ClosenessComputations += comps
	r.c.stats.BoundPruned += pruned
	r.c.stats.ShardsPruned += shardsPruned
	if best != nil {
		heap.Push(&r.heap, *best)
	}
}

// bestPartner computes the GIF's best admissible partner, the number of
// closeness evaluations the search considered, how many of those were
// answered by a summary bound instead of an exact metric call, and how
// many shards the sharded scan discarded wholesale — all without
// touching run state beyond the caller's scan scratch, so the seed phase can
// run the searches of distinct GIFs on different workers. The exhaustive
// scan reduces in GIF-ID order, first strict maximum winning, so the
// returned candidate and the comps/pruned counts are identical at any shard
// count (shardsPruned alone depends on the shard layout).
func (r *cramRun) bestPartner(g *gif, scan *scanScratch) (best *candidate, comps, pruned, shardsPruned int) {
	// Self-pair: the equal relationship pairs a GIF with itself whenever it
	// holds more than one unit (Optimization 1's equal case).
	if len(g.units) >= 2 && !r.blacklisted(g.id, g.id) {
		c := bitvector.Closeness(r.c.Metric, g.profile, g.profile)
		comps++
		if c > 0 {
			best = &candidate{gifID: g.id, partnerID: g.id, closeness: c}
		}
	}
	if !r.exhaustive {
		res := r.ps.SearchClosestOpts(g.profile, r.c.Metric, func(n *poset.Node) bool {
			return n.ID == g.id || r.blacklisted(g.id, n.ID)
		}, true, !r.c.DisableBoundPruning)
		comps += res.Computations
		pruned += res.BoundPruned
		if res.Best != nil && res.Closeness > 0 && (best == nil || res.Closeness > best.closeness) {
			best = &candidate{gifID: g.id, partnerID: res.Best.ID, closeness: res.Closeness}
		}
		return best, comps, pruned, shardsPruned
	}

	// t0 is the incumbent threshold of both pruning rules: only a strictly
	// greater closeness replaces the self-pair.
	t0 := 0.0
	if best != nil {
		t0 = best.closeness
	}
	ids := r.sortedGIFIDs()
	if r.shards != nil {
		// Wholesale shard pruning against t0, so a pruned shard's members
		// are exactly pairings the per-pair rule would have pruned
		// individually (and none could have anchored). The surviving
		// members arrive merged back into global ID order, keeping the
		// reduction's tie-break canonical.
		var bulk int
		ids, bulk, shardsPruned = r.shardSurvivors(g, t0, scan)
		comps += bulk
		pruned += bulk
	}
	skip, ubs := scan.sized(len(ids))
	for i, id := range ids {
		skip[i] = id == g.id || r.blacklisted(g.id, id)
	}
	anchor, anchorC := -1, 0.0
	if r.c.DisableBoundPruning {
		ubs = nil
	} else {
		anchor, anchorC = r.boundPruneScan(g, ids, skip, ubs, t0)
	}
	for i, id := range ids {
		if skip[i] {
			continue
		}
		comps++
		c := anchorC
		if i != anchor {
			if ubs != nil && (ubs[i] <= t0 || ubs[i] < anchorC) {
				pruned++
				continue
			}
			c = bitvector.Closeness(r.c.Metric, g.profile, r.gifs[id].profile)
		}
		if c > 0 && (best == nil || c > best.closeness) {
			best = &candidate{gifID: g.id, partnerID: id, closeness: c}
		}
	}
	return best, comps, pruned, shardsPruned
}

// boundPruneScan is the bound stage of the exhaustive partner scan
// (anchored bound pruning, DESIGN.md §9). It takes the summary-based
// closeness upper bound of every admissible pairing into ubs (the caller's,
// len(ids) long; entries of skipped pairings are left as they were), picks
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
func (r *cramRun) boundPruneScan(g *gif, ids []string, skip []bool, ubs []float64, t0 float64) (anchor int, anchorC float64) {
	anchor = -1
	for i, id := range ids {
		if skip[i] {
			continue
		}
		ubs[i] = bitvector.ClosenessUpperBound(r.c.Metric, g.summary, r.gifs[id].summary)
		if ubs[i] > t0 && (anchor < 0 || ubs[i] > ubs[anchor]) {
			anchor = i
		}
	}
	if anchor >= 0 {
		anchorC = bitvector.Closeness(r.c.Metric, g.profile, r.gifs[ids[anchor]].profile)
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

// clusterSelf merges units within one GIF: binary search for the largest
// cluster of its lightest units that still allocates. The committed merged
// unit mints its cram-u ID only after the search settles, so minted IDs
// never depend on how many infeasible probes ran.
func (r *cramRun) clusterSelf(g *gif) bool {
	n := len(g.units)
	if n < 2 {
		return false
	}
	bestK := r.searchMaxFeasible(2, n, func(k int) ([]*Unit, *Unit) {
		return g.units[:k], MergeUnits(probeUnitID, r.capacity, g.units[:k]...)
	})
	if bestK < 2 {
		return false
	}
	removed := g.units[:bestK]
	merged := MergeUnits(r.newUnitID(), r.capacity, removed...)
	if !r.commit(removed, merged) {
		return false
	}
	g.units = append([]*Unit{}, g.units[bestK:]...)
	g.insertUnit(merged)
	r.pushBest(g)
	return true
}

// clusterLightest merges the lightest unit of each GIF into a new unit
// whose profile is the OR of the two (the intersect case of Optimization 1
// and the generic pairwise case).
func (r *cramRun) clusterLightest(a, b *gif) bool {
	ua, ub := a.units[0], b.units[0]
	merged := MergeUnits(probeUnitID, r.capacity, ua, ub)
	if !r.feasible([]*Unit{ua, ub}, []*Unit{merged}) {
		return false
	}
	merged.ID = r.newUnitID() // mint only at commit
	if !r.commit([]*Unit{ua, ub}, merged) {
		return false
	}
	r.detachUnit(a, ua)
	r.detachUnit(b, ub)
	r.attachUnit(merged)
	return true
}

// clusterCovering handles the superset/subset case: the lightest unit of
// the covering GIF clusters with as many of the covered GIF's units as
// still allocate (binary search over the covered units sorted ascending by
// bandwidth). The merged profile equals the covering GIF's profile, so the
// merged unit joins the covering GIF.
func (r *cramRun) clusterCovering(covering, covered *gif) bool {
	uc := covering.units[0]
	n := len(covered.units)
	bestM := r.searchMaxFeasible(1, n, func(m int) ([]*Unit, *Unit) {
		parts := append([]*Unit{uc}, covered.units[:m]...)
		return parts, MergeUnits(probeUnitID, r.capacity, parts...)
	})
	if bestM == 0 {
		return false
	}
	parts := append([]*Unit{uc}, covered.units[:bestM]...)
	merged := MergeUnits(r.newUnitID(), r.capacity, parts...)
	if !r.commit(parts, merged) {
		return false
	}
	covering.removeUnit(uc)
	for _, u := range parts[1:] {
		covered.removeUnit(u)
	}
	covering.insertUnit(merged)
	if len(covered.units) == 0 {
		r.dropGIF(covered)
	} else {
		r.pushBest(covered)
	}
	r.pushBest(covering)
	return true
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
	type covEntry struct {
		g *gif
	}
	var pool []covEntry
	for _, n := range descendants {
		dg, ok := n.Payload.(*gif)
		if !ok || dg == nil {
			continue
		}
		if _, live := r.gifs[dg.id]; !live {
			continue
		}
		pool = append(pool, covEntry{g: dg})
	}
	if len(pool) == 0 {
		return false
	}
	cgsProfile := bitvector.NewProfile(r.capacity)
	var cgs []*gif
	load := parent.units[0].Load.Bandwidth
	for len(pool) > 0 {
		bestIdx, bestNew := -1, 0
		for i, e := range pool {
			nb := bitvector.DiffCount(e.g.profile, cgsProfile)
			r.c.stats.CoverComputations++
			if nb > bestNew {
				bestNew = nb
				bestIdx = i
			}
		}
		if bestIdx < 0 {
			break // no remaining GIF adds coverage
		}
		g := pool[bestIdx].g
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
	// Allocation test: merge the parent's lightest unit with the lightest
	// unit of every CGS member.
	puc := parent.units[0]
	parts := []*Unit{puc}
	for _, g := range cgs {
		parts = append(parts, g.units[0])
	}
	merged := MergeUnits(probeUnitID, r.capacity, parts...)
	if !r.feasible(parts, []*Unit{merged}) {
		return false
	}
	merged.ID = r.newUnitID() // mint only at commit
	// Commit: merged profile equals the parent's (CGS members are covered),
	// so the merged unit joins the parent GIF.
	if !r.commit(parts, merged) {
		return false
	}
	parent.removeUnit(puc)
	for _, g := range cgs {
		g.removeUnit(g.units[0])
		if len(g.units) == 0 {
			r.dropGIF(g)
		} else {
			r.pushBest(g)
		}
	}
	parent.insertUnit(merged)
	r.pushBest(parent)
	return true
}

// detachUnit removes a unit from its GIF, dropping the GIF when emptied.
// The pool is the caller's to change (pool.commit with the full delta).
func (r *cramRun) detachUnit(g *gif, u *Unit) {
	g.removeUnit(u)
	if len(g.units) == 0 {
		r.dropGIF(g)
	} else {
		r.pushBest(g)
	}
}

// attachUnit files a (possibly merged) unit under the GIF matching its
// profile, creating the GIF — and its poset node — when new. A poset that
// refuses the node (its ID is taken, which no run of this code leads to)
// fails the run through err.
func (r *cramRun) attachUnit(u *Unit) {
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
	g.insertUnit(u)
	r.pushBest(g)
}

// dropGIF removes an emptied GIF from all indices. A poset that does not
// hold the GIF's node fails the run through err.
func (r *cramRun) dropGIF(g *gif) {
	delete(r.gifs, g.id)
	delete(r.byKey, g.key)
	r.gifIDsDirty = true
	if r.shards != nil {
		// Removal leaves the shard envelope stale on the admissible side
		// (it can only prune less), so only the live count updates.
		r.shards.drop(g.id)
	}
	if g.node != nil {
		g.node = nil
		if err := r.ps.Remove(g.id); err != nil && r.err == nil {
			r.err = fmt.Errorf("poset remove of GIF %s: %w", g.id, err)
		}
	}
}
