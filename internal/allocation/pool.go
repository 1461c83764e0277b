package allocation

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/greenps/greenps/internal/bitvector"
)

// pool is CRAM's unit pool and the one place its feasibility is tested
// ("does the pool still BIN-PACK with these units removed and that merged
// unit added?"). It owns the committed units in BIN PACKING order
// (unitBefore) and, position for position, their compiled form. A change is
// staged once (stage), tested (probe) and applied (commit): commit is the
// only function that changes either slice and it changes both, and probe is
// the only feasibility entry. A probe first asks the capacity certificate
// (certify), which proves from the pool's totals, in O(1) beyond the staged
// change, that first-fit packs the stream commit would leave: the rate test
// cannot refuse, every unit fits an empty broker, and the total bandwidth is
// below the capacity of every other broker in trial order. It answers all
// 3,227 probes on the 20,000-subscription scale workload (seed 1), which
// replayed 19.4M placements without it, and none of the 3,609 in one
// 8,000-subscription plan, whose matching delay binds. Any other probe is
// one serial first-fit replay, from the empty pack, of that stream, and it
// replays nearly the whole pool whatever it changes — the merged unit it
// adds is heavy and inserts near the front of the bandwidth-descending
// order: 8.9M placements in the 8k plan, ~2,470 per probe. What keeps that
// affordable is the cost of a placement, counted on those two workloads
// with every probe replayed:
//
//  1. The replay is flat. stream is one contiguous []packUnit (bandwidth,
//     input load, filter count and publisher-indexed vector list per
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
//     plan and 1.0 on the 20k pool, each a walk of AndCount over the unit's
//     publishers. Unit windows are anchored at their first set bit and start
//     anywhere in a word; vectors sit on an absolute word grid (bitvector,
//     DESIGN.md §9.1), so a walk is one AND and one popcount per grid word
//     the unit and the aggregate share.
//
// At ~100 ns a placement (BenchmarkProbeReplay on its synthetic pool, 2-vCPU
// Xeon), neither splitting one across goroutines, nor resuming a replay from
// saved broker states, nor running a binary search's next probes ahead of
// time pays for its bookkeeping, and a tournament tree over remaining
// bandwidth costs per placement what the column scan does (EXPERIMENTS.md,
// "Mechanism census").
// A pool is for one goroutine.
type pool struct {
	table *bitvector.PublisherTable

	units  []*Unit    // the committed pool in BIN PACKING order
	stream []packUnit // stream[i] is units[i] compiled
	pk     *pack      // the scratch pack every probe replays onto

	// What the capacity certificate reads (certify). bandwidth bounds the
	// committed stream's total bandwidth from above and filters counts its
	// routing-table entries; commit adopts both from the change. rho is the
	// largest rateShare of any unit the pool has compiled, NaN once one had
	// a load the certificate cannot reason about. pairs sums the capacities
	// at trial positions 0, 2, 4, … (⌊|B|/2⌋ terms) and narrowest is the
	// smallest capacity.
	bandwidth        float64
	filters          int
	rho              float64
	pairs, narrowest float64
}

// newPool ingests the units: sorted into BIN PACKING order, then compiled.
// brokers are in trial order.
func newPool(units []*Unit, brokers []*BrokerSpec, t *bitvector.PublisherTable, capacity int) *pool {
	p := &pool{table: t, units: sortUnitsByBandwidthDesc(units), pk: newPack(brokers, t, capacity)}
	p.stream = compileUnits(p.units, t)
	for i := range p.stream {
		pu := &p.stream[i]
		p.bandwidth, p.filters = roundUp(p.bandwidth+pu.load.Bandwidth), p.filters+pu.filters
		p.rho = max(p.rho, rateShare(pu))
	}
	p.narrowest = math.Inf(1)
	for b, c := range p.pk.limit {
		if b%2 == 0 && b+1 < len(p.pk.limit) {
			p.pairs += c
		}
		p.narrowest = min(p.narrowest, c)
	}
	return p
}

// rateShare is the unit's input rate per byte/s of delivery bandwidth: 0
// for a unit that draws no input, +Inf for one that needs no bandwidth but
// draws input, and NaN when the rate is negative or not finite or the
// bandwidth negative or NaN.
func rateShare(pu *packUnit) float64 {
	q, bw := pu.in.Rate, pu.load.Bandwidth
	switch {
	case !(q >= 0 && q <= math.MaxFloat64 && bw >= 0):
		return math.NaN()
	case q == 0:
		return 0
	}
	return q / bw
}

// roundUp returns the next float64 above x: an upper bound on the exact
// value of the rounded sum or difference x.
func roundUp(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }

// change is one modification of the pool, staged against its committed
// state: the removed units' positions, and the added units in BIN PACKING
// order with where each goes and its compiled form. probe replays exactly
// the stream commit splices, so a probe vouches for the very pool its commit
// makes. A change is good until the next commit.
type change struct {
	cut      []int      // the removed units' positions, ascending
	at       []int      // added[j] goes ahead of the pool's unit at[j] (len: at the end)
	added    []*Unit    // the added units, in BIN PACKING order
	compiled []packUnit // added[j] compiled
	err      error      // a removed unit the pool does not hold, or one listed twice
	// The pool's bandwidth and filters with the change committed.
	bandwidth float64
	filters   int
}

// stage derives the change that replaces the removed units by the added
// ones: the cut by binary search, the added units sorted, placed by binary
// search on unitBefore and compiled, and the pool's totals moved by the
// units that leave and join it. Everything probe and commit need is derived
// here, once.
func (p *pool) stage(removed, added []*Unit) change {
	c := change{cut: p.positions(removed), added: sortUnitsByBandwidthDesc(added)}
	if len(c.cut) != len(removed) {
		c.err = fmt.Errorf("allocation: pool commit: %d of %d removed units are not in the pool or listed twice",
			len(removed)-len(c.cut), len(removed))
	}
	c.at = make([]int, len(c.added))
	for j, u := range c.added {
		c.at[j] = sort.Search(len(p.units), func(i int) bool { return unitBefore(u, p.units[i]) })
	}
	c.compiled = compileUnits(c.added, p.table)
	c.bandwidth, c.filters = p.bandwidth, p.filters
	for _, i := range c.cut {
		pu := &p.stream[i]
		c.bandwidth, c.filters = roundUp(c.bandwidth-pu.load.Bandwidth), c.filters-pu.filters
	}
	for j := range c.compiled {
		pu := &c.compiled[j]
		c.bandwidth, c.filters = roundUp(c.bandwidth+pu.load.Bandwidth), c.filters+pu.filters
		p.rho = max(p.rho, rateShare(pu))
	}
	return c
}

// commit applies a change staged since the last commit: splice rewrites both
// slices in one pass. unitBefore is a strict total order, so the result is
// the slice a sort of the modified pool would give. A change with an error
// leaves the pool as it was and returns the error.
func (p *pool) commit(c change) error {
	if c.err != nil {
		return c.err
	}
	p.units, p.stream = splice(p.units, c.cut, c.at, c.added), splice(p.stream, c.cut, c.at, c.compiled)
	p.bandwidth, p.filters = c.bandwidth, c.filters
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

// probe reports whether the pool with the change committed would still
// first-fit pack onto the broker pool, and whether the capacity certificate
// answered: when it holds the answer is yes without a replay, and otherwise
// one replay from the empty pack answers.
func (p *pool) probe(c change) (packs, certified bool) {
	if p.certify(c) {
		return true, true
	}
	p.pk.clear()
	return p.replay(c), false
}

// certify reports whether the pool with the change committed provably
// first-fit packs, from its totals alone (DESIGN.md §7.1, "The capacity
// certificate"). With ρ the largest rateShare the pool has compiled, F its
// routing-table entries after the change and s = 1 + (n+|B|+2)·2⁻⁵¹ the
// rounding slack of a replay of its n units onto |B| brokers, it tests:
//
//	(a) ρ·C_b·s ≤ MaxRate(F+1) for every broker b of capacity C_b: no
//	    broker refuses a unit on rate and no saturation mark is set, so
//	    every refusal is on bandwidth;
//	(b) the widest unit is narrower than the narrowest broker: an empty
//	    broker admits any unit, so the open brokers are a prefix of the
//	    trial order and a unit no broker admits found them all open;
//	(c) the total bandwidth, times s, is below the capacity at trial
//	    positions 0, 2, 4, …: broker 2k+1 opened on a unit broker 2k
//	    refused, so each such pair holds more than C_2k, and |B| open
//	    brokers would hold more than the pool has.
//
// (a) comes first and fails at the first broker of a rate-bound pool.
// Unordered rates, a negative PerSub or a NaN anywhere fail a test.
func (p *pool) certify(c change) bool {
	pk := p.pk
	if !pk.ratesOrdered {
		return false
	}
	n := len(p.stream) - len(c.cut) + len(c.compiled)
	slack := 1 + float64(float64(n+len(pk.limit)+2)*0x1p-51)
	for b := range pk.states {
		d := &pk.states[b].spec.Delay
		if !(d.PerSub >= 0 && p.rho*pk.limit[b]*slack <= d.MaxRate(c.filters+1)) {
			return false
		}
	}
	// The stream head is its widest unit, and compiled[0] the widest added
	// one; a cut head only makes the bound looser.
	var widest float64
	if len(p.stream) > 0 {
		widest = p.stream[0].load.Bandwidth
	}
	if len(c.compiled) > 0 {
		widest = max(widest, c.compiled[0].load.Bandwidth)
	}
	return widest < p.narrowest && c.bandwidth*slack < p.pairs
}

// replay first-fit packs the stream onto the scratch pack, which must be
// empty, in the order commit would leave it: each added unit ahead of the
// position staged for it, the cut positions skipped.
func (p *pool) replay(c change) bool {
	pk, cut, j := p.pk, c.cut, 0
	for i := range p.stream {
		for ; j < len(c.at) && c.at[j] == i; j++ {
			if pk.place(&c.compiled[j]) < 0 {
				return false
			}
		}
		if len(cut) > 0 && cut[0] == i {
			cut = cut[1:]
			continue
		}
		if pk.place(&p.stream[i]) < 0 {
			return false
		}
	}
	for ; j < len(c.compiled); j++ {
		if pk.place(&c.compiled[j]) < 0 {
			return false
		}
	}
	return true
}
