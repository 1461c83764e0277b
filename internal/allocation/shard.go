package allocation

import (
	"github.com/greenps/greenps/internal/bitvector"
)

// This file implements the sharded exhaustive partner scan (DESIGN.md
// §14). GIFs are routed to shards by their summary signature — dominant
// publisher plus a bucket of its window start — so profiles that
// concentrate their bits in the same region share a shard, which keeps
// the shard envelopes (bitvector.Envelope) tight. Each search then tests
// one envelope bound per shard against the incumbent threshold t0 and
// discards whole shards that provably cannot contribute: every member's
// per-pair bound is at most the envelope bound, so a shard with
// envelope ub <= t0 contains only pairings the anchored per-pair rule
// (boundPruneScan) would prune on its ub <= t0 arm — and none of them
// can be the anchor, which requires ub > t0. Scanning only the
// survivors, in global ID order, therefore reproduces the unsharded
// scan's candidate, anchor choice, ClosenessComputations, and
// BoundPruned exactly; the shard layout can only change which pruned
// pairings were tallied in bulk (ShardsPruned) versus individually.
//
// Concurrency: the seed phase calls shardSurvivors from worker
// goroutines, so it only reads shard state. All mutation — membership
// hooks and envelope rebuilds — runs on the coordinator between
// searches (freshen is called at the top of pushBest, never from the
// fan-out, which operates on the freshly built initial shards).

const (
	// autoShardMinGIFs is the pool size below which Shards=0 stays
	// unsharded — envelope upkeep only pays off once scans are long.
	autoShardMinGIFs = 4096
	// maxAutoShards caps the automatic shard count.
	maxAutoShards = 1024
	// windowBucketShift sizes the routing key's window bucket: profiles
	// whose dominant windows start within the same 1<<windowBucketShift
	// positions share a bucket.
	windowBucketShift = 9
)

// shardSet is the sharded view of the live GIF pool.
type shardSet struct {
	n      int
	of     map[string]int // gifID -> shard index; entries outlive drops
	shards []*shardInfo
}

// shardInfo is one shard: its members and their aggregate envelope.
type shardInfo struct {
	env bitvector.Envelope
	// bound is the envelope materialized as a Summary at the last
	// freshen; read-only between freshens, so parallel searches may
	// evaluate it concurrently.
	bound *bitvector.Summary
	// ids holds member IDs in arrival order, including dropped ones
	// until the next compaction; liveness is checked against the run's
	// gif index at rebuild time.
	ids   []string
	live  int
	dirty bool // a member arrived since the last envelope rebuild
}

// shardCount resolves the configured shard count against the initial
// pool size: explicit wins, otherwise 1 below the autoshard floor and
// roughly √n (next power of two, capped) above it.
func shardCount(cfg, nGIFs int) int {
	if cfg > 0 {
		return cfg
	}
	if nGIFs < autoShardMinGIFs {
		return 1
	}
	n := 1
	for n*n < nGIFs {
		n <<= 1
	}
	if n > maxAutoShards {
		n = maxAutoShards
	}
	return n
}

// newShardSet returns an empty shard set of the given resolved count,
// or nil when a single shard would make sharding pure overhead.
func newShardSet(n int) *shardSet {
	if n <= 1 {
		return nil
	}
	s := &shardSet{n: n, of: make(map[string]int), shards: make([]*shardInfo, n)}
	for i := range s.shards {
		s.shards[i] = &shardInfo{}
	}
	return s
}

// routeShard hashes a summary's signature (dominant publisher, window
// bucket) to a shard index with FNV-1a.
//
//greenvet:hotpath shard router: called once per GIF at pool build and per merged-unit attach
func routeShard(sum *bitvector.Summary, n int) int {
	adv, first, ok := sum.Dominant()
	if !ok {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(adv); i++ {
		h = (h ^ uint32(adv[i])) * 16777619
	}
	b := uint32(first >> windowBucketShift)
	for i := 0; i < 4; i++ {
		h = (h ^ (b & 0xff)) * 16777619
		b >>= 8
	}
	return int(h % uint32(n))
}

// add routes a GIF into its shard. Coordinator only.
func (s *shardSet) add(g *gif) {
	idx := routeShard(g.summary, s.n)
	s.of[g.id] = idx
	sh := s.shards[idx]
	sh.ids = append(sh.ids, g.id)
	sh.live++
	sh.dirty = true
}

// drop records a GIF's removal. The envelope is left stale — an
// envelope over a superset of the members is still admissible (it can
// only prune less), so no rebuild is needed; the member list is
// compacted lazily at the next rebuild. Coordinator only.
func (s *shardSet) drop(id string) {
	s.shards[s.of[id]].live--
}

// freshen rebuilds the envelope of every shard that gained a member
// since its last build and rematerializes its bound. Must run on the
// coordinator before any search that could see the new member; a clean
// shard set returns after n flag checks.
func (s *shardSet) freshen(gifs map[string]*gif) {
	for _, sh := range s.shards {
		if !sh.dirty {
			continue
		}
		if len(sh.ids) > 2*sh.live+8 {
			kept := sh.ids[:0]
			for _, id := range sh.ids {
				if _, ok := gifs[id]; ok {
					kept = append(kept, id)
				}
			}
			sh.ids = kept
		}
		sh.env.Reset()
		for _, id := range sh.ids {
			if g, ok := gifs[id]; ok {
				sh.env.Absorb(g.summary)
			}
		}
		sh.bound = sh.env.Bound()
		sh.dirty = false
	}
}

// shardSurvivors is the wholesale-pruning stage of the sharded scan for
// probe g with incumbent threshold t0. It returns the IDs of the
// surviving shards' members in global sorted order (the cross-shard
// merge of the scan input; the slice is scan's, good until its next
// search), the number of admissible pairings the pruned shards contained
// — tallied into both ClosenessComputations and BoundPruned by the
// caller, exactly as the per-pair rule would have — and the count of
// shards pruned wholesale. It only reads run state: the seed phase calls
// it from worker goroutines, each with a scratch of its own.
//
//greenvet:hotpath shard scan: runs once per partner search, envelope bound per shard (E13: millions of calls)
func (r *cramRun) shardSurvivors(g *gif, t0 float64, scan *scanScratch) (ids []string, bulk, shardsPruned int) {
	s := r.shards
	survived := make([]bool, s.n)
	gShard := s.of[g.id]
	for i, sh := range s.shards {
		if sh.live == 0 {
			continue
		}
		if bitvector.ClosenessUpperBound(r.c.Metric, g.summary, sh.bound) > t0 {
			survived[i] = true
			continue
		}
		shardsPruned++
		// Admissible members of the pruned shard: live members minus the
		// probe itself minus live blacklisted partners — the same set the
		// unsharded scan would have counted and bound-pruned one by one.
		n := sh.live
		if i == gShard {
			n--
		}
		for _, p := range r.blPartners[g.id] {
			if s.of[p] != i {
				continue
			}
			if _, live := r.gifs[p]; live {
				n--
			}
		}
		bulk += n
	}
	all := r.sortedGIFIDs()
	if cap(scan.ids) < len(all) {
		scan.ids = make([]string, len(all))
	}
	ids, n := scan.ids[:len(all)], 0
	for _, id := range all {
		if survived[s.of[id]] {
			ids[n] = id
			n++
		}
	}
	return ids[:n], bulk, shardsPruned
}
