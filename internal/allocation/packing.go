package allocation

import (
	"fmt"
	"sort"

	"github.com/greenps/greenps/internal/bitvector"
)

// packUnit is a unit compiled for first-fit packing against one run's
// publisher table: everything fits and accept read, flat, so a placement
// never touches the Unit, its Profile or a string-keyed map. CRAM's pool
// keeps its committed units as a contiguous []packUnit.
type packUnit struct {
	// load is the unit's delivery (output) requirement, Unit.Load.
	load bitvector.Load
	// in is the unit's input-side load: the traffic matching its profile.
	in bitvector.Load
	// filters is the unit's routing-table entry count, Unit.Filters.
	filters int
	// entries lists the profile's vectors by ascending publisher index —
	// ascending advertisement ID, the order bitvector.EstimateLoad and
	// IntersectLoad accumulate in. Units of one class share one slice.
	entries []bitvector.PubVector
	// class names the exact content of entries within the run (see
	// classTable); 0 means not interned — a hypothetical merged unit
	// compiled for one probe.
	class int32
}

// compileUnit compiles the unit against the table. A pure function of
// (unit, table).
func compileUnit(u *Unit, t *bitvector.PublisherTable) packUnit {
	entries := t.Compile(u.Profile)
	return packUnit{load: u.Load, in: inputLoad(entries, t.Stats()), filters: u.Filters, entries: entries}
}

// inputLoad is bitvector.EstimateLoad over a compiled profile: the same
// terms added in the same order, so the result is bit-identical.
func inputLoad(entries []bitvector.PubVector, stats []*bitvector.PublisherStats) bitvector.Load {
	var out bitvector.Load
	for i := range entries {
		e := &entries[i]
		st := stats[e.Pub]
		if st == nil {
			continue
		}
		f := e.V.Fraction()
		out.Rate += st.Rate * f
		out.Bandwidth += st.Bandwidth * f
	}
	return out
}

// newPublisherTable indexes the publishers of one run: the reported
// statistics plus whatever the units' profiles mention.
func newPublisherTable(pubs map[string]*bitvector.PublisherStats, units []*Unit) *bitvector.PublisherTable {
	profiles := make([]*bitvector.Profile, len(units))
	for i, u := range units {
		profiles[i] = u.Profile
	}
	return bitvector.NewPublisherTable(pubs, profiles)
}

// classTable interns compiled entry lists by exact content for one run —
// one table pairs with one PublisherTable and dies with it. Two units are of
// one class iff bitvector.CompiledEqual holds for their entries (publisher
// index, firstID, lastID, capacity, words; the hash only indexes): equal
// fingerprints are not enough, because the intersect load divides by window
// widths a fingerprint does not see. Units of a class share the canonical
// entries slice, and a broker that has just accepted one knows what the next
// one does to it (brokerState.last). The zero value is ready to use; intern
// is for the coordinating goroutine only.
type classTable struct {
	byHash  map[uint64][]int32
	entries [][]bitvector.PubVector // entries[c-1] is class c's canonical list
}

// intern gives pu its class, minting one when its content is new, and
// points it at the class's canonical entries.
func (ct *classTable) intern(pu *packUnit) {
	if ct.byHash == nil {
		ct.byHash = make(map[uint64][]int32)
	}
	h := bitvector.HashCompiled(pu.entries)
	for _, c := range ct.byHash[h] {
		if bitvector.CompiledEqual(ct.entries[c-1], pu.entries) {
			pu.entries, pu.class = ct.entries[c-1], c
			return
		}
	}
	ct.entries = append(ct.entries, pu.entries)
	pu.class = int32(len(ct.entries))
	ct.byHash[h] = append(ct.byHash[h], pu.class)
}

// compileUnits returns the units' compiled forms, position for position,
// each interned in unit order.
func compileUnits(units []*Unit, t *bitvector.PublisherTable, classes *classTable) []packUnit {
	packed := make([]packUnit, len(units))
	for i, u := range units {
		packed[i] = compileUnit(u, t)
		classes.intern(&packed[i])
	}
	return packed
}

// brokerState tracks one broker's tentative contents during packing.
type brokerState struct {
	spec *BrokerSpec
	// agg is the OR of the hosted units' profiles (the broker's input
	// filter), one vector per publisher-table index; nil where no hosted
	// unit mentions the publisher.
	agg []*bitvector.Vector
	// spare parks vectors that clear took out of agg, for reuse by the next
	// accept: a scratch state that serves probe after probe stops
	// allocating once it has seen every publisher.
	spare []*bitvector.Vector
	// inLoad is the estimated load of agg (publications entering the
	// broker).
	inLoad bitvector.Load
	// outLoad is the sum of hosted unit loads (deliveries leaving the
	// broker).
	outLoad bitvector.Load
	// filters is the routing-table entry count.
	filters int
	// last is the class of the unit accepted last, 0 when that unit had none
	// or nothing is hosted: agg already contains every unit of that class.
	// lastInter is the intersect load of such a unit against agg, valid once
	// lastKnown — from the second consecutive accept of the class on, when
	// fits has computed it against an aggregate the accept then left as it
	// was. Any accept of another class overwrites all three.
	last      int32
	lastKnown bool
	lastInter bitvector.Load
	// fullBelow marks a rate-saturated broker: fits' rate bound rejects every
	// unit of at least one filter whose input rate is below it, whatever
	// else the unit holds (see saturation). accept recomputes it from the
	// state it leaves; it is positive only once the broker is saturated.
	fullBelow float64
}

// fits applies the paper's two admission criteria (Section IV-A): after
// accepting the unit, (1) the broker's remaining output bandwidth must stay
// strictly positive, and (2) its incoming publication rate must not exceed
// its maximum matching rate (the inverse of the matching delay at the new
// routing-table size). On success it returns the intersect load it used, so
// accept need not recompute it; on rejection the returned load is
// unspecified.
//
// The intersect load is bitvector.IntersectLoad(aggregate, unit profile)
// as an array walk: for each publisher both sides hold and the statistics
// describe, the intersection cardinality over the wider window, summed in
// ascending advertisement-ID order — the same terms in the same order, so
// the same bits. Exact shortcuts keep most calls off that walk (DESIGN.md
// §7.1):
//
//   - Run memo: when the broker's last two accepts were of the unit's class,
//     the aggregate is what the previous fits of that class walked, and the
//     walk would return lastInter again.
//   - Rate bound (ratesOrdered: every publisher rate finite and
//     non-negative): the walk's inter.Rate cannot exceed pu.in.Rate — each of
//     its terms is at most the matching term of pu.in.Rate, accumulated in
//     the same order over a subset, and IEEE operations are monotone — so
//     (inLoad.Rate + pu.in.Rate) − pu.in.Rate is a floating-point lower bound
//     on the rate the walk would arrive at. Above the limit, the unit is
//     rejected without it.
//   - Saturation: fullBelow caches, per accept, for which units that bound
//     is certain to fire, so a full broker costs one comparison beyond the
//     bandwidth test.
//
//greenvet:hotpath first-fit admission test: 2.3 calls per replayed unit behind place's column scan, 10.6M replayed units in one 8k-subscription plan
func (bs *brokerState) fits(pu *packUnit, stats []*bitvector.PublisherStats, ratesOrdered bool) (bool, bitvector.Load) {
	if bs.outLoad.Bandwidth+pu.load.Bandwidth >= bs.spec.OutputBandwidth {
		return false, bitvector.Load{}
	}
	if ratesOrdered && pu.in.Rate < bs.fullBelow && pu.filters >= 1 {
		return false, bitvector.Load{}
	}
	lim := bs.spec.Delay.MaxRate(bs.filters + pu.filters)
	sum := bs.inLoad.Rate + pu.in.Rate
	if bs.lastKnown && pu.class == bs.last {
		return sum-bs.lastInter.Rate <= lim, bs.lastInter
	}
	if ratesOrdered && sum-pu.in.Rate > lim {
		return false, bitvector.Load{}
	}
	var inter bitvector.Load
	for i := range pu.entries {
		e := &pu.entries[i]
		av := bs.agg[e.Pub]
		if av == nil {
			continue
		}
		st := stats[e.Pub]
		if st == nil {
			continue
		}
		w := av.Window()
		if uw := e.V.Window(); uw > w {
			w = uw
		}
		if w == 0 {
			continue
		}
		f := float64(bitvector.AndCount(av, &e.V)) / float64(w)
		inter.Rate += st.Rate * f
		inter.Bandwidth += st.Bandwidth * f
	}
	return sum-inter.Rate <= lim, inter
}

// accept commits the unit to the broker. inter must be the intersect load
// fits returned for the same unit against the same state. The aggregate
// update is Profile.Or entry by entry: a publisher the unit mentions gains
// a vector even when the unit's own is empty, and Vector.Or drops bits
// older than the aggregate's window exactly as it does there. A unit of the
// class accepted last finds its content already in the aggregate — Vector.Or
// is idempotent — so the walk is skipped and inter, which fits computed
// against this very aggregate, is what the next unit of the class will get.
//
//greenvet:hotpath one call per replayed unit, beside fits
func (bs *brokerState) accept(pu *packUnit, inter bitvector.Load, capacity int, ratesOrdered bool) {
	bs.inLoad.Rate += pu.in.Rate - inter.Rate
	bs.inLoad.Bandwidth += pu.in.Bandwidth - inter.Bandwidth
	bs.outLoad = bs.outLoad.Add(pu.load)
	bs.filters += pu.filters
	// The mark can be positive only where the rate exceeds the limit with
	// one more filter, 1/delay; well short of that — the common case, and
	// the only one on a bandwidth-bound pool — it stays 0 for the price of a
	// multiplication instead of MaxRate's division.
	bs.fullBelow = 0
	if ratesOrdered && bs.spec.Delay.PerSub >= 0 && bs.inLoad.Rate*bs.spec.Delay.Delay(bs.filters+1) > 0.99 {
		bs.fullBelow = saturation(bs.inLoad.Rate, bs.spec.Delay.MaxRate(bs.filters+1))
	}
	if pu.class != 0 && pu.class == bs.last {
		bs.lastKnown, bs.lastInter = true, inter
		return
	}
	for i := range pu.entries {
		e := &pu.entries[i]
		v := bs.agg[e.Pub]
		if v == nil {
			if v = bs.takeSpare(); v != nil {
				v.Reset()
			} else {
				v = bitvector.New(capacity)
			}
			bs.agg[e.Pub] = v
		}
		v.Or(&e.V)
	}
	bs.last, bs.lastKnown = pu.class, false
}

// saturation returns the input rate below which fits' rate bound rejects
// every unit of at least one filter, for a broker whose aggregate sinks rate
// msgs/s and whose limit with one more filter is lim; 0 or less (or NaN)
// when there is no such rate. With a matching delay that does not fall as
// filters are added, no such unit faces a higher limit than lim, and the
// bound fl(fl(rate+q) − q) loses at most (2·rate+q)·2⁻⁵³·(1+2⁻⁵³) to its two
// roundings; for q below (rate−lim)·2⁵⁰ − 2·rate that is under
// (rate−lim)/4 — a factor of two to spare for the roundings of this very
// expression — so the bound stays above lim (DESIGN.md §7.1).
func saturation(rate, lim float64) float64 {
	return (rate-lim)*(1<<50) - 2*rate
}

// clear empties bs in place, parking its aggregate vectors in spare for the
// next accept to reuse.
func (bs *brokerState) clear() {
	for p, v := range bs.agg {
		if v != nil {
			bs.spare = append(bs.spare, v)
			bs.agg[p] = nil
		}
	}
	*bs = brokerState{spec: bs.spec, agg: bs.agg, spare: bs.spare}
}

// takeSpare pops a parked vector, or returns nil when none is parked.
func (bs *brokerState) takeSpare() *bitvector.Vector {
	n := len(bs.spare)
	if n == 0 {
		return nil
	}
	v := bs.spare[n-1]
	bs.spare = bs.spare[:n-1]
	return v
}

// pack is one first-fit packing in progress: the broker states in trial
// order plus the run-wide context fits and accept need.
type pack struct {
	states []brokerState
	// out, limit and mark are the admission columns, one entry per broker in
	// trial order: copies of states[b].outLoad.Bandwidth,
	// states[b].spec.OutputBandwidth and states[b].fullBelow, the three values
	// fits' two opening tests read. place scans them instead of calling fits
	// on every broker; it, clear and newPack are the only writers, each right
	// where the brokerState changes (DESIGN.md §7.1).
	out, limit, mark []float64
	stats            []*bitvector.PublisherStats
	// ratesOrdered is the table's RatesOrdered: whether fits may use the
	// rate bound.
	ratesOrdered bool
	capacity     int
}

// newPack returns an empty packing of the brokers, tried in the given
// order.
func newPack(brokers []*BrokerSpec, t *bitvector.PublisherTable, capacity int) *pack {
	n := t.Len()
	states := make([]brokerState, len(brokers))
	aggs := make([]*bitvector.Vector, len(brokers)*n)
	limit := make([]float64, len(brokers))
	for i, b := range brokers {
		states[i] = brokerState{spec: b, agg: aggs[i*n : (i+1)*n : (i+1)*n]}
		limit[i] = b.OutputBandwidth
	}
	return &pack{
		states: states,
		out:    make([]float64, len(brokers)), limit: limit, mark: make([]float64, len(brokers)),
		stats: t.Stats(), ratesOrdered: t.RatesOrdered(), capacity: capacity,
	}
}

// clear empties the packing in place, keeping its vectors for reuse.
func (p *pack) clear() {
	for i := range p.states {
		p.states[i].clear()
	}
	clear(p.out)
	clear(p.mark)
}

// place puts the unit on the first broker with capacity for it and returns
// that broker's index, or -1 when no broker admits the unit. A broker that
// fits' bandwidth test or saturation mark would turn away is passed over on
// the columns alone — the same two expressions over copies of the same
// values, so fits is called exactly where it would have gone on to its third
// test, and it stays the one definition of admission.
//
//greenvet:hotpath the serial first-fit scan of every packing and every feasibility probe: ~17 brokers passed per replayed unit on the 8k plan, 2.3 of them reaching fits
func (p *pack) place(pu *packUnit) int {
	bw, rate := pu.load.Bandwidth, pu.in.Rate
	marked := p.ratesOrdered && pu.filters >= 1
	limit, mark := p.limit[:len(p.out)], p.mark[:len(p.out)]
	for b, out := range p.out {
		if out+bw >= limit[b] || marked && rate < mark[b] {
			continue
		}
		bs := &p.states[b]
		if ok, inter := bs.fits(pu, p.stats, p.ratesOrdered); ok {
			bs.accept(pu, inter, p.capacity, p.ratesOrdered)
			p.out[b], p.mark[b] = bs.outLoad.Bandwidth, bs.fullBelow
			return b
		}
	}
	return -1
}

// sortBrokersByCapacity returns the broker pool ordered most-resourceful
// first. From the paper's experience the broker bottleneck is network I/O,
// so resourcefulness is total output bandwidth (ties broken by ID for
// determinism).
func sortBrokersByCapacity(brokers []*BrokerSpec) []*BrokerSpec {
	out := make([]*BrokerSpec, len(brokers))
	copy(out, brokers)
	sort.Slice(out, func(i, j int) bool {
		if out[i].OutputBandwidth != out[j].OutputBandwidth {
			return out[i].OutputBandwidth > out[j].OutputBandwidth
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// errUnitUnplaceable reports the unit that no broker could admit.
type errUnitUnplaceable struct {
	unitID string
}

func (e *errUnitUnplaceable) Error() string {
	return fmt.Sprintf("allocation: unit %q cannot be allocated to any broker", e.unitID)
}

// packFirstFit places units (in the given order) onto brokers (tried in the
// given order), implementing the shared core of FBF and BIN PACKING: each
// unit goes to the first broker with capacity for it. It fails on the first
// unplaceable unit, exactly as the paper's algorithms terminate.
// compiled[i] must be units[i] compiled against t.
func packFirstFit(units []*Unit, compiled []packUnit, brokers []*BrokerSpec, t *bitvector.PublisherTable,
	capacity int) (*Assignment, error) {
	p := newPack(brokers, t, capacity)
	hosted := make([][]*Unit, len(brokers))
	for i, u := range units {
		b := p.place(&compiled[i])
		if b < 0 {
			return nil, &errUnitUnplaceable{unitID: u.ID}
		}
		hosted[b] = append(hosted[b], u)
	}
	out := &Assignment{
		ByBroker: make(map[string][]*Unit),
		Loads:    make(map[string]BrokerLoad),
		Profiles: make(map[string]*bitvector.Profile),
		Specs:    make(map[string]*BrokerSpec, len(brokers)),
	}
	for _, b := range brokers {
		out.Specs[b.ID] = b
	}
	for i := range p.states {
		if len(hosted[i]) == 0 {
			continue
		}
		bs := &p.states[i]
		out.ByBroker[bs.spec.ID] = hosted[i]
		out.Loads[bs.spec.ID] = BrokerLoad{Input: bs.inLoad, Output: bs.outLoad, Filters: bs.filters}
		out.Profiles[bs.spec.ID] = t.Profile(bs.agg, capacity)
	}
	return out, nil
}

// FitsBroker reports whether the entire unit set can be hosted by one
// broker within both capacity constraints. Phase 3's takeover and best-fit
// optimizations use it to test hypothetical broker contents.
func FitsBroker(spec *BrokerSpec, units []*Unit, pubs map[string]*bitvector.PublisherStats, capacity int) bool {
	t := newPublisherTable(pubs, units)
	compiled := compileUnits(units, t, new(classTable))
	p := newPack([]*BrokerSpec{spec}, t, capacity)
	for i := range compiled {
		if p.place(&compiled[i]) < 0 {
			return false
		}
	}
	return true
}

// sortUnitsByBandwidthDesc orders units highest bandwidth requirement
// first (ties broken by ID), the BIN PACKING ordering.
func sortUnitsByBandwidthDesc(units []*Unit) []*Unit {
	out := make([]*Unit, len(units))
	copy(out, units)
	sort.Slice(out, func(i, j int) bool { return unitBefore(out[i], out[j]) })
	return out
}
