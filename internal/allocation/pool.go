package allocation

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/greenps/greenps/internal/bitvector"
	"github.com/greenps/greenps/internal/message"
)

// pool is CRAM's unit pool and the one place its feasibility is tested
// ("does the pool still BIN-PACK with these units removed and that merged
// unit added?"). It owns the committed units in BIN PACKING order
// (unitBefore) and, position for position, their compiled form. A change is
// staged once (stage), tested (probe) and applied (commit): commit is the
// only function that changes either slice and it changes both, and probe is
// the only feasibility entry. A probe is one serial first-fit replay, from
// the empty pack, of the stream commit would leave. At the head of the
// stream and every certifyEvery positions after, it asks the capacity
// certificate (certify) whether the units still to come provably fit the
// brokers the replay has not opened, and stops with yes as soon as they do.
// The certificate reads the change's totals less what the replay has placed,
// in O(1) beyond the pool's constants: every unit to come fits an empty
// broker, and their bandwidth is below the capacity of every other unopened
// broker in trial order, less as many pairs as refusals on rate can have
// opened. On the 20,000-subscription scale workload (seed 1) it answers all
// 3,227 probes at the head; on one 8,000-subscription plan, whose matching
// delay binds, it answers 1,952 of the 3,609 there and stops the others
// part-way, after 0.21M placements in all where 8.9M were replayed before it
// — the merged unit a probe adds is heavy, often lone, and inserts near the
// front of the bandwidth-descending order, so a replay without the
// certificate redoes nearly the whole pool. What keeps a placement cheap was
// counted on those two workloads with every probe replayed:
//
//  1. The replay is flat. stream is one contiguous []packUnit (bandwidth,
//     input load, filter count and publisher-indexed vector list per
//     position), removed units are a sorted position list walked alongside
//     it, and the broker states are one scratch pack, left empty between
//     probes by clearing the brokers the last replay opened — no map
//     lookup, no Unit or Profile dereference and, in the steady state, no
//     allocation.
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
	pk     *pack      // the scratch pack every probe replays onto, empty between probes

	// What the capacity certificate reads (certify). totals are the
	// committed stream's; commit adopts them from the change. rho is the
	// largest rateShare of any unit the pool has compiled, NaN once one's
	// input rate overflowed. worst is a matching delay no broker's exceeds
	// at any table size: the largest Base and the largest PerSub. pairs[b]
	// sums the capacities at trial positions b, b+2, … that have a successor
	// (0 from |B|−1 on; |B|+1 entries), and narrowest is the smallest
	// capacity.
	totals
	rho       float64
	worst     message.MatchingDelayFn
	pairs     []float64
	narrowest float64
}

// totals are what the capacity certificate reads of a stream: upper bounds
// on its total bandwidth and input rate, its routing-table entries and its
// lone units.
type totals struct {
	bandwidth, rate float64
	filters, lone   int
}

// join and leave move the totals by a unit that joins or leaves the stream,
// rounding each sum and difference up (roundUp): however many units have
// come and gone, the float totals never fall below the exact ones.
func (t *totals) join(pu *packUnit) {
	t.bandwidth, t.rate = roundUp(t.bandwidth+pu.load.Bandwidth), roundUp(t.rate+pu.in.Rate)
	t.filters += int(pu.filters)
	if pu.lone {
		t.lone++
	}
}

func (t *totals) leave(pu *packUnit) {
	t.bandwidth, t.rate = roundUp(t.bandwidth-pu.load.Bandwidth), roundUp(t.rate-pu.in.Rate)
	t.filters -= int(pu.filters)
	if pu.lone {
		t.lone--
	}
}

// add adds a unit to plain float sums, as minus expects them.
func (t *totals) add(pu *packUnit) {
	t.bandwidth += pu.load.Bandwidth
	t.rate += pu.in.Rate
	t.filters += int(pu.filters)
	if pu.lone {
		t.lone++
	}
}

// minus returns upper bounds on the totals of the stream t describes once
// the n units whose plain float sums are in done have left it. A sum of n
// non-negative terms is at most (1+u)^(n−1) times the exact one (u = 2⁻⁵³),
// so done scaled by 1 − 2nu, rounded, is below the exact sum; the difference,
// rounded, is at least (1−u) times its exact value, and scaled by 1 + 4u and
// rounded again it is above the exact rest.
func (t totals) minus(done totals, n int) totals {
	if n == 0 {
		return t
	}
	d := 1 - float64(float64(n)*0x1p-52)
	return totals{
		bandwidth: (t.bandwidth - float64(done.bandwidth*d)) * (1 + 0x1p-51),
		rate:      (t.rate - float64(done.rate*d)) * (1 + 0x1p-51),
		filters:   t.filters - done.filters,
		lone:      t.lone - done.lone,
	}
}

// newPool ingests the units: sorted into BIN PACKING order, then compiled.
// brokers are in trial order.
func newPool(units []*Unit, brokers []*BrokerSpec, t *bitvector.PublisherTable) *pool {
	p := &pool{table: t, units: sortUnitsByBandwidthDesc(units), pk: newPack(brokers, t), narrowest: math.Inf(1)}
	for _, b := range brokers {
		p.worst.Base, p.worst.PerSub = max(p.worst.Base, b.Delay.Base), max(p.worst.PerSub, b.Delay.PerSub)
	}
	limit := p.pk.limit
	p.pairs = make([]float64, len(limit)+1)
	for b, c := range limit {
		for i := b; i+1 < len(limit); i += 2 {
			p.pairs[b] += limit[i]
		}
		p.narrowest = min(p.narrowest, c)
	}
	p.stream = p.compile(p.units)
	for i := range p.stream {
		p.join(&p.stream[i])
	}
	return p
}

// compile compiles the units against the pool's table and marks the lone
// ones: a unit is lone when an empty broker may refuse it on rate, its
// input rate above worst.MaxRate(filters). That limit is at most every
// broker's MaxRate(filters), the same expression over terms no larger, and
// an empty broker tests the unit's own input rate against its own limit, so
// a unit that is not lone passes every empty broker's rate test. compile
// also raises rho.
func (p *pool) compile(units []*Unit) []packUnit {
	s := compileUnits(units, p.table)
	for i := range s {
		pu := &s[i]
		pu.lone = !(pu.in.Rate <= p.worst.MaxRate(int(pu.filters)))
		p.rho = max(p.rho, rateShare(pu))
	}
	return s
}

// rateShare is the unit's input rate per byte/s of delivery bandwidth: 0
// for a unit that draws no input, +Inf for one that needs no bandwidth but
// draws input, and NaN for one whose input rate — a sum of finite
// non-negative terms under Input.Validate — overflowed to +Inf: no broker
// limit bounds it, and a replay's Inf − Inf is NaN, which the rate test
// refuses.
func rateShare(pu *packUnit) float64 {
	q := pu.in.Rate
	switch {
	case q == 0:
		return 0
	case q > math.MaxFloat64:
		return math.NaN()
	}
	return q / pu.load.Bandwidth
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
	totals              // the pool's totals with the change committed
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
	c.compiled = p.compile(c.added)
	c.totals = p.totals
	for _, i := range c.cut {
		c.leave(&p.stream[i])
	}
	for j := range c.compiled {
		c.join(&c.compiled[j])
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
	p.totals = c.totals
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
// first-fit pack onto the broker pool, and how many placements its replay
// made to tell: none when the capacity certificate answered at once. It
// leaves the scratch pack empty.
func (p *pool) probe(c change) (packs bool, placed int) {
	packs, placed = p.replay(c)
	p.pk.clear()
	return packs, placed
}

// certifyEvery is how many stream positions a replay passes between two
// questions to the capacity certificate. A question costs about what a
// placement does, most of it in branches the placements have pushed out of
// the predictor. Asked this often, the questions and the sums minus reads
// add about 3% to a replay they never stop (BenchmarkFeasProbe's pool);
// asked every 16 positions, they would save 7% of plan_paper8k's
// placements.
const certifyEvery = 32

// replay first-fit packs the change's stream onto the scratch pack, which
// must be empty, in the order commit would leave it: each added unit ahead
// of the position staged for it, the cut positions skipped. At every
// certifyEvery-th position of the committed stream, the first included, it
// asks the capacity certificate about the units still to come, and returns
// yes as soon as that holds. It returns whether the stream packs and how
// many placements it made, the one that found no broker included: ahead of
// stream[i], i positions less the ci cuts passed, plus the j added units.
func (p *pool) replay(c change) (packs bool, placed int) {
	pk, stream := p.pk, p.stream
	n := len(stream) - len(c.cut) + len(c.compiled)
	slack := 1 + float64(float64(n+len(pk.limit)+2)*0x1p-51)
	free := p.rateFree(c.filters, slack)
	var done totals // plain sums over the units placed, for minus
	ci, j := 0, 0
	for i := range stream {
		if i%certifyEvery == 0 {
			// The widest unit to come is the next added one or stream[i],
			// cut or not.
			head := stream[i].load.Bandwidth
			if j < len(c.compiled) {
				head = max(head, c.compiled[j].load.Bandwidth)
			}
			if placed := i - ci + j; p.certify(free, slack, pk.opened, head, c.minus(done, placed)) {
				return true, placed
			}
		}
		for ; j < len(c.at) && c.at[j] == i; j++ {
			done.add(&c.compiled[j])
			if pk.place(&c.compiled[j]) < 0 {
				return false, i - ci + j + 1
			}
		}
		if ci < len(c.cut) && c.cut[ci] == i {
			ci++
			continue
		}
		done.add(&stream[i])
		if pk.place(&stream[i]) < 0 {
			return false, i - ci + j + 1
		}
	}
	for ; j < len(c.compiled); j++ {
		if pk.place(&c.compiled[j]) < 0 {
			return false, len(stream) - ci + j + 1
		}
	}
	return true, n
}

// rateFree is the capacity certificate's test (a) for a stream of the given
// routing-table entries: ρ·C_b·s ≤ MaxRate_b(filters+1) for every broker b
// of capacity C_b, with ρ the largest rateShare the pool has compiled and s
// the replay's slack. When it holds no broker refuses a unit on rate and no
// saturation mark is set, so every refusal is on bandwidth (DESIGN.md §7.1).
// It fails at the first broker of a rate-bound pool; a NaN fails it.
func (p *pool) rateFree(filters int, slack float64) bool {
	pk := p.pk
	for b := range pk.states {
		if !(p.rho*pk.limit[b]*slack <= pk.states[b].spec.Delay.MaxRate(filters+1)) {
			return false
		}
	}
	return true
}

// certify is the capacity certificate (DESIGN.md §7.1): it reports whether
// units still to come of totals rest, none wider than head, provably
// first-fit pack, given that brokers [k, |B|) are empty. With s the
// replay's slack and free its test (a):
//
//	(b) head is below the narrowest broker's capacity and, unless free, no
//	    unit to come is lone: an empty broker admits any of them, so a unit
//	    no broker admits found every broker from k on open, each opened by
//	    a unit to come;
//	(c) the rest's bandwidth, times s, is below the capacities at trial
//	    positions k+2g, k+2g+2, …: broker k+2j+1 opened on a unit broker
//	    k+2j refused, so each such pair holds at least C_{k+2j} or, refused
//	    on rate, more input for its filters than any broker sustains; at
//	    most g pairs (ratePairs, 0 when free) are of the second kind, and
//	    the others hold at least the last even capacities.
//
// (c) is asked at g = 0 first, which settles most failing questions
// without the square root. A NaN anywhere fails a test.
func (p *pool) certify(free bool, slack float64, k int, head float64, rest totals) bool {
	if !(head < p.narrowest) || !free && rest.lone > 0 || !(rest.bandwidth*slack < p.pairs[k]) {
		return false
	}
	return free || rest.bandwidth*slack < p.pairs[k+2*p.ratePairs(rest, slack, (len(p.pk.limit)-k)/2)]
}

// ratePairs bounds the number g of a tail's pairs whose odd broker a rate
// refusal opened. Such a pair holds units of input rate IN_p and filters
// F_p with IN_p·s·Delay_max(F_p) > 1, Delay_max = worst, so over the g pairs
// Σ 1/IN_p < s·(Base_max·g + PerSub_max·F), F the rest's filters; by
// convexity Σ 1/IN_p ≥ g²/Σ IN_p ≥ g²/IN, IN the rest's input rate, so
// g² < IN·s·(Base_max·g + PerSub_max·F). The quadratic's positive root,
// evaluated in six roundings and scaled by s once more to cover them, bounds
// g: the result is its floor, or pairs when it is not below pairs (+Inf and
// NaN included).
func (p *pool) ratePairs(rest totals, slack float64, pairs int) int {
	in := float64(rest.rate * slack)
	c1 := float64(in * p.worst.Base)
	c0 := float64(in * float64(p.worst.PerSub*float64(rest.filters)))
	r := (c1 + math.Sqrt(float64(c1*c1)+float64(4*c0))) / 2 * slack
	if !(r < float64(pairs)) {
		return pairs
	}
	return int(r)
}
