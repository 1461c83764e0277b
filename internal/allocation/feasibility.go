package allocation

import (
	"slices"
	"sort"
	"sync"

	"github.com/greenps/greenps/internal/bitvector"
)

// feasEngine answers CRAM's allocation-feasibility probes ("does the pool
// still BIN-PACK with these units removed and that merged unit added?")
// by replaying first-fit packing over the committed pool, serially and from
// the empty pack. A probe replays nearly the whole pool whatever it changes —
// the merged unit it adds is heavy and inserts near the front of the
// bandwidth-descending order: 7,083 of the pool's units per probe on the
// 20,000-subscription scale workload (seed 1; 7,419 probes, 52.5M
// placements), 10.6M placements in one 8,000-subscription plan. What keeps
// that affordable is the cost of a placement, counted on those two
// workloads:
//
//  1. The replay is flat. reset compiles the committed pool into one
//     contiguous []packUnit (bandwidth, memoized input load, filter count,
//     class and publisher-indexed vector list per position), removed units
//     are a sorted position list walked alongside it, and the broker states
//     are a reusable scratch pack cleared in place — no map lookup, no Unit
//     or Profile dereference and, in the steady state, no allocation.
//  2. Most broker tests are decided without vector arithmetic (packing.go).
//     A placement tries ~17 brokers on the 8k plan and ~8 on the 20k pool
//     before one admits the unit; the 8k plan's leading brokers are
//     rate-saturated and cost one comparison each (152M of 177M fits calls),
//     the 20k pool's are out of bandwidth (372M of 424M). Of the calls that
//     get as far as the intersect load, the run memo answers 2.6M and 29.6M
//     — the pool is runs of identical compiled content, 1,634 distinct
//     contents among the 20k pool's units — and 21.7M and 22.9M walk
//     AndCount over the unit's publishers: two walks per placement on the 8k
//     plan, less than one in two on the 20k pool. accept skips its OR walk
//     for 3.1M of 10.6M and 37.2M of 52.5M placements.
//  3. Committed units carry their compiled form memoized on the Unit by
//     the CRAM coordinator (see Unit.packedFor), so concurrent probes pay
//     a plain field read and never write shared state for it.
//
// At ~85 ns a placement, neither splitting one across goroutines nor
// resuming a replay from saved broker states pays for its bookkeeping
// (EXPERIMENTS.md, "Mechanism census").
//
// probe is safe for concurrent use (CRAM's speculative binary-search
// evaluation runs probes in parallel); reset is not and must be called from
// the coordinating goroutine only.
type feasEngine struct {
	brokers  []*BrokerSpec
	table    *bitvector.PublisherTable
	capacity int

	// mu guards scratch, the only state concurrent probes share mutably:
	// the idle scratch packs, one per probe that has ever run concurrently.
	mu      sync.Mutex
	scratch []*pack

	version int
	base    []*Unit    // the committed pool in BIN PACKING order
	stream  []packUnit // stream[i] is base[i] compiled
}

func newFeasEngine(brokers []*BrokerSpec, t *bitvector.PublisherTable, capacity int) *feasEngine {
	return &feasEngine{brokers: brokers, table: t, capacity: capacity}
}

// reset points the engine at a new committed base pool, which must be in
// BIN PACKING order (unitBefore). The compiled stream is kept up to the
// longest unchanged prefix (compared by unit identity) and recompiled from
// there.
func (e *feasEngine) reset(base []*Unit, version int) {
	if e.base != nil && e.version == version {
		return
	}
	common := 0
	for common < len(base) && common < len(e.base) && base[common] == e.base[common] {
		common++
	}
	e.stream = slices.Grow(e.stream[:common], len(base)-common)
	for _, u := range base[common:] {
		e.stream = append(e.stream, u.packedFor(e.table))
	}
	e.base = base
	e.version = version
}

// poolPositions returns the ascending, duplicate-free positions of the
// given units in a pool held in BIN PACKING order, each found by binary
// search on that order and confirmed by identity; units not in the pool are
// ignored.
func poolPositions(pool []*Unit, units []*Unit) []int {
	pos := make([]int, 0, len(units))
	for _, u := range units {
		i := sort.Search(len(pool), func(i int) bool { return !unitBefore(pool[i], u) })
		if i < len(pool) && pool[i] == u {
			pos = append(pos, i)
		}
	}
	sort.Ints(pos)
	return slices.Compact(pos)
}

// probe reports whether the base pool with the given hypothetical
// modification still first-fit packs onto the broker pool: removed units
// are skipped, added units are merged into the bandwidth-descending
// stream, each ahead of the first base unit of strictly lower bandwidth.
// The stream is NOT always the BIN PACKING order of the modified pool: an
// added unit whose bandwidth ties with base units goes after all of them,
// where unitBefore — the order the pool takes once the change is committed
// — breaks the tie by ID. The two orders can pack differently, so a probe
// vouches for its own stream only (ROADMAP item 5 records the divergence;
// TestProbeBandwidthTieOrder pins the behaviour).
func (e *feasEngine) probe(removed, added []*Unit) bool {
	rem := poolPositions(e.base, removed)
	sorted := slices.Clone(added)
	sort.Slice(sorted, func(i, j int) bool { return unitBefore(sorted[i], sorted[j]) })
	add := make([]packUnit, len(sorted))
	for i, u := range sorted {
		add[i] = u.packedFor(e.table)
	}

	// A scratch pack of this probe's own, returned to the idle list after.
	var pk *pack
	e.mu.Lock()
	if n := len(e.scratch); n > 0 {
		pk, e.scratch = e.scratch[n-1], e.scratch[:n-1]
	}
	e.mu.Unlock()
	if pk == nil {
		pk = newPack(e.brokers, e.table, e.capacity)
	}
	defer func() {
		e.mu.Lock()
		e.scratch = append(e.scratch, pk)
		e.mu.Unlock()
	}()
	pk.clear()
	return e.replay(pk, rem, add)
}

// replay first-fit packs the stream onto the empty pack pk with the probe's
// modifications merged in: rem lists the positions to skip, ascending; add
// the compiled units to insert, in stream order.
//
//greenvet:hotpath the feasibility replay loop: one iteration per replayed unit, ~7,000 per probe on the 20k pool
func (e *feasEngine) replay(pk *pack, rem []int, add []packUnit) bool {
	ai := 0
	for i := range e.stream {
		pu := &e.stream[i]
		for ai < len(add) && add[ai].load.Bandwidth > pu.load.Bandwidth {
			if pk.place(&add[ai]) < 0 {
				return false
			}
			ai++
		}
		if len(rem) > 0 && rem[0] == i {
			rem = rem[1:]
			continue
		}
		if pk.place(pu) < 0 {
			return false
		}
	}
	for ; ai < len(add); ai++ {
		if pk.place(&add[ai]) < 0 {
			return false
		}
	}
	return true
}
