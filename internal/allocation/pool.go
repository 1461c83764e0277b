package allocation

import (
	"fmt"
	"slices"
	"sort"

	"github.com/greenps/greenps/internal/bitvector"
)

// pool is CRAM's unit pool and the one place its feasibility is tested
// ("does the pool still BIN-PACK with these units removed and that merged
// unit added?"). It owns the committed units in BIN PACKING order
// (unitBefore) and, position for position, their compiled form: commit is
// the only function that changes either slice and it changes both. probe is
// the only feasibility entry: one serial first-fit replay of the compiled
// stream, from the empty pack. A probe replays nearly the whole pool whatever
// it changes — the merged unit it adds is heavy and inserts near the front of
// the bandwidth-descending order: ~6,018 of the pool's units per probe on the
// 20,000-subscription scale workload (seed 1; 3,227 probes, 19.4M
// placements), 8.9M placements in one 8,000-subscription plan. What keeps
// that affordable is the cost of a placement, counted on those two
// workloads:
//
//  1. The replay is flat. stream is one contiguous []packUnit (bandwidth,
//     input load, filter count, class and publisher-indexed vector list per
//     position), removed units are a sorted position list walked alongside
//     it, and the broker states are one scratch pack cleared in place — no
//     map lookup, no Unit or Profile dereference and, in the steady state,
//     no allocation.
//  2. Most broker tests are decided without vector arithmetic, and most of
//     those without a call (packing.go). A placement passes ~16 brokers on
//     the 8k plan and ~8 on the 20k pool before one admits the unit; the 8k
//     plan's leading brokers are rate-saturated (122M of 144M tests), the
//     20k pool's out of bandwidth (140M of 160M), and place turns both away
//     on its admission columns, two comparisons over three contiguous
//     float64 arrays. What reaches fits is 2.4 calls per placement on the 8k
//     plan and 1.0 on the 20k pool. Of those, the run memo answers 2.1M and
//     10.8M — the pool is runs of identical compiled content, 1,634 distinct
//     contents among the 20k pool's units — and 19.7M and 8.6M walk
//     AndCount over the unit's publishers: two walks per placement on the 8k
//     plan, less than one in two on the 20k pool. Unit windows are anchored
//     at their first set bit and start anywhere in a word; vectors sit on an
//     absolute word grid (bitvector, DESIGN.md §9.1), so a walk is one AND
//     and one popcount per grid word the unit and the aggregate share. accept
//     skips its OR walk for 2.5M of 8.9M and 13.6M of 19.4M placements.
//
// At ~55 ns a placement (~1.1 s for the 20k row's 19.4M; BenchmarkProbeReplay
// reads 43–47 ns on its synthetic pool), neither splitting one across
// goroutines, nor resuming a replay from saved broker states, nor
// running a binary search's next probes ahead of time pays for its
// bookkeeping, and a tournament tree over remaining bandwidth costs per
// placement what the column scan does (EXPERIMENTS.md, "Mechanism census").
// A pool is for one goroutine.
type pool struct {
	table *bitvector.PublisherTable
	// classes interns the committed units' compiled content against table.
	classes classTable

	units  []*Unit    // the committed pool in BIN PACKING order
	stream []packUnit // stream[i] is units[i] compiled and interned
	pk     *pack      // the scratch pack every probe replays onto
}

// newPool ingests the units: sorted into BIN PACKING order, then compiled
// and interned in that order. brokers are in trial order.
func newPool(units []*Unit, brokers []*BrokerSpec, t *bitvector.PublisherTable, capacity int) *pool {
	p := &pool{table: t, units: sortUnitsByBandwidthDesc(units), pk: newPack(brokers, t, capacity)}
	p.stream = compileUnits(p.units, t, &p.classes)
	return p
}

// commit replaces the removed units by the added ones. The added units are
// sorted, placed among the pool's by binary search, and compiled and
// interned; splice then rewrites both slices in one pass. unitBefore is a
// strict total order, so the result is the slice a sort of the modified pool
// would give. A removed unit the pool does not hold (or one listed twice) is
// an error, and leaves the pool as it was.
func (p *pool) commit(removed, added []*Unit) error {
	cut := p.positions(removed)
	if len(cut) != len(removed) {
		return fmt.Errorf("allocation: pool commit: %d of %d removed units are not in the pool or listed twice",
			len(removed)-len(cut), len(removed))
	}
	added = sortUnitsByBandwidthDesc(added)
	at := make([]int, len(added))
	for j, u := range added {
		at[j] = sort.Search(len(p.units), func(i int) bool { return unitBefore(u, p.units[i]) })
	}
	compiled := compileUnits(added, p.table, &p.classes)
	p.units, p.stream = splice(p.units, cut, at, added), splice(p.stream, cut, at, compiled)
	return nil
}

// splice drops the elements of s at the ascending positions cut and inserts
// add[j] ahead of s[at[j]] (at ascending; len(s) appends), in place. Each run
// of kept elements between two such positions shifts by the inserts ahead of
// it minus the cuts ahead of it; runs shifting left are copied first to last
// and runs shifting right last to first, so no copy overwrites an element not
// yet moved, each kept element moves at most once, and the elements ahead of
// the first cut or insert not at all.
func splice[T any](s []T, cut, at []int, add []T) []T {
	type run struct{ lo, hi, d int } // s[lo:hi] moves to s[lo+d:hi+d]
	n, m := len(s), len(s)-len(cut)+len(add)
	runs, dst := make([]run, 0, len(cut)+len(at)+1), make([]int, len(add))
	lo, d, j := 0, 0, 0
	for ci := 0; ci <= len(cut); ci++ {
		hi := n
		if ci < len(cut) {
			hi = cut[ci]
		}
		for ; j < len(at) && at[j] <= hi; j++ {
			runs = append(runs, run{lo, at[j], d})
			dst[j], lo, d = at[j]+d, at[j], d+1
		}
		runs = append(runs, run{lo, hi, d})
		lo, d = hi+1, d-1
	}
	s = slices.Grow(s, max(m-n, 0))[:max(m, n)]
	for _, r := range runs {
		if r.d < 0 {
			copy(s[r.lo+r.d:], s[r.lo:r.hi])
		}
	}
	for i := len(runs) - 1; i >= 0; i-- {
		if r := runs[i]; r.d > 0 {
			copy(s[r.lo+r.d:], s[r.lo:r.hi])
		}
	}
	for j, q := range dst {
		s[q] = add[j]
	}
	clear(s[m:])
	return s[:m]
}

// positions returns the ascending, duplicate-free positions of the given
// units in the pool, each found by binary search on the BIN PACKING order and
// confirmed by identity; units not in the pool are ignored.
func (p *pool) positions(units []*Unit) []int {
	pos := make([]int, 0, len(units))
	for _, u := range units {
		i := sort.Search(len(p.units), func(i int) bool { return !unitBefore(p.units[i], u) })
		if i < len(p.units) && p.units[i] == u {
			pos = append(pos, i)
		}
	}
	sort.Ints(pos)
	return slices.Compact(pos)
}

// probe reports whether the pool with the given hypothetical modification
// still first-fit packs onto the broker pool: removed units are skipped,
// added units are merged into the bandwidth-descending stream, each ahead of
// the first pool unit of strictly lower bandwidth. The stream is NOT always
// the BIN PACKING order of the modified pool: an added unit whose bandwidth
// ties with pool units goes after all of them, where unitBefore — the order
// the pool takes once the change is committed — breaks the tie by ID. The
// two orders can pack differently, so a probe vouches for its own stream
// only (ROADMAP item 5 records the divergence; TestProbeBandwidthTieOrder
// pins the behaviour). Added units are compiled for this probe alone and
// stay un-interned.
func (p *pool) probe(removed, added []*Unit) bool {
	rem := p.positions(removed)
	sorted := sortUnitsByBandwidthDesc(added)
	add := make([]packUnit, len(sorted))
	for i, u := range sorted {
		add[i] = compileUnit(u, p.table)
	}
	p.pk.clear()
	return p.replay(rem, add)
}

// replay first-fit packs the stream onto the scratch pack, which must be
// empty, with the probe's modifications merged in: rem lists the positions
// to skip, ascending; add the compiled units to insert, in stream order.
func (p *pool) replay(rem []int, add []packUnit) bool {
	pk, ai := p.pk, 0
	for i := range p.stream {
		pu := &p.stream[i]
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
