package allocation

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"github.com/greenps/greenps/internal/bitvector"
)

// packUnit is a unit compiled for first-fit packing against one run's
// publisher table: everything fits and accept read, so a placement never
// touches the Unit or a string-keyed map. CRAM's pool keeps its committed
// units as blocks of contiguous []packUnit.
type packUnit struct {
	// load is the unit's delivery (output) requirement, Unit.Load.
	load bitvector.Load
	// in is the unit's input-side load: the traffic matching its profile.
	in bitvector.Load
	// filters is the unit's routing-table entry count, one per member.
	filters int32
	// lone marks a unit an empty broker may refuse on rate; CRAM's pool sets
	// it (pool.compile) and its capacity certificate counts it.
	lone bool
	// prof is the unit's profile bound to the table, and pubs its vectors by
	// ascending rank — ascending advertisement ID, the order EstimateLoad and
	// IntersectLoad add in — which fits and accept walk without a hop.
	prof *bitvector.Profile
	pubs bitvector.Pubs
}

// compileUnit compiles the unit against the table, a pure function of the
// two: its profile bound, and its loads, the input load EstimateLoad's terms
// over the bound entries added in the same order, so the same bits.
func compileUnit(u *Unit, t *bitvector.PublisherTable) packUnit {
	pu := packUnit{load: u.Load, filters: int32(u.filters()), prof: t.Bind(u.Profile)}
	pu.pubs = pu.prof.Pubs()
	for i := range pu.pubs {
		r, v := pu.pubs.Pub(i)
		if st := t.Stats()[r]; st != nil {
			f := v.Fraction()
			pu.in.Rate += float64(st.Rate * f)
			pu.in.Bandwidth += float64(st.Bandwidth * f)
		}
	}
	return pu
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

// compileUnits returns the units' compiled forms, position for position.
func compileUnits(units []*Unit, t *bitvector.PublisherTable) []packUnit {
	packed := make([]packUnit, len(units))
	for i, u := range units {
		packed[i] = compileUnit(u, t)
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
	// fullBelow marks a rate-saturated broker: fits' walk would reject every
	// unit whose input rate is below it, whatever else the unit holds (see
	// saturation; every unit has a filter). accept recomputes it from the
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
// the same bits. One exact shortcut keeps many calls off that walk
// (DESIGN.md §7.1): fullBelow caches, per accept, for which units the walk
// is certain to reject, so a full broker costs one comparison beyond the
// bandwidth test. With publisher rates finite and non-negative, as
// Input.Validate requires, the walk's inter.Rate cannot exceed pu.in.Rate —
// each of its terms is at most the matching term of pu.in.Rate, accumulated
// in the same order over a subset, and IEEE operations are monotone — so
// the rate it tests is at least (inLoad.Rate + pu.in.Rate) − pu.in.Rate,
// which the mark keeps above the limit.
func (bs *brokerState) fits(pu *packUnit, stats []*bitvector.PublisherStats) (bool, bitvector.Load) {
	if bs.outLoad.Bandwidth+pu.load.Bandwidth >= bs.spec.OutputBandwidth || pu.in.Rate < bs.fullBelow {
		return false, bitvector.Load{}
	}
	lim := bs.spec.Delay.MaxRate(bs.filters + int(pu.filters))
	sum := bs.inLoad.Rate + pu.in.Rate
	var inter bitvector.Load
	for i := range pu.pubs {
		r, uv := pu.pubs.Pub(i)
		av := bs.agg[r]
		if av == nil {
			continue
		}
		st := stats[r]
		if st == nil {
			continue
		}
		w := av.Window()
		if uw := uv.Window(); uw > w {
			w = uw
		}
		if w == 0 {
			continue
		}
		f := float64(bitvector.AndCount(av, uv)) / float64(w)
		inter.Rate += float64(st.Rate * f)
		inter.Bandwidth += float64(st.Bandwidth * f)
	}
	return sum-inter.Rate <= lim, inter
}

// accept commits the unit to the broker. inter must be the intersect load
// fits returned for the same unit against the same state. The aggregate
// update is Profile.Or entry by entry: a publisher the unit mentions gains
// a vector even when the unit's own is empty, and Vector.Or drops bits
// older than the aggregate's window exactly as it does there.
func (bs *brokerState) accept(pu *packUnit, inter bitvector.Load, capacity int) {
	bs.inLoad.Rate += pu.in.Rate - inter.Rate
	bs.inLoad.Bandwidth += pu.in.Bandwidth - inter.Bandwidth
	bs.outLoad = bs.outLoad.Add(pu.load)
	bs.filters += int(pu.filters)
	// The mark can be positive only where the rate exceeds the limit with
	// one more filter, 1/delay; well short of that — the common case, and
	// the only one on a bandwidth-bound pool — it stays 0 for the price of a
	// multiplication instead of MaxRate's division.
	bs.fullBelow = 0
	if bs.inLoad.Rate*bs.spec.Delay.Delay(bs.filters+1) > 0.99 {
		bs.fullBelow = saturation(bs.inLoad.Rate, bs.spec.Delay.MaxRate(bs.filters+1))
	}
	for i := range pu.pubs {
		r, uv := pu.pubs.Pub(i)
		v := bs.agg[r]
		if v == nil {
			if k := len(bs.spare); k > 0 {
				v, bs.spare = bs.spare[k-1], bs.spare[:k-1]
				v.Reset()
			} else {
				v = bitvector.New(capacity)
			}
			bs.agg[r] = v
		}
		v.Or(uv)
	}
}

// saturation returns the input rate below which fits' walk rejects every
// unit of at least one filter, for a broker whose aggregate sinks rate
// msgs/s and whose limit with one more filter is lim; 0 or less (or NaN)
// when there is no such rate. With a matching delay that does not fall as
// filters are added, no such unit faces a higher limit than lim. The walk
// tests a rate of at least fl(fl(rate+q) − q), which loses at most
// (2·rate+q)·2⁻⁵³·(1+2⁻⁵³) to its two roundings; for q below
// (rate−lim)·2⁵⁰ − 2·rate that is under (rate−lim)/4 — a factor of two to
// spare for the roundings of this very expression — so the tested rate
// stays above lim (DESIGN.md §7.1).
func saturation(rate, lim float64) float64 {
	return float64((rate-lim)*(1<<50)) - float64(2*rate)
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
	// opened is one past the last broker a unit was placed on since the last
	// clear: the brokers from it on are empty, and clear empties the rest.
	opened   int
	stats    []*bitvector.PublisherStats
	capacity int
}

// newPack returns an empty packing of the brokers, tried in the given
// order, whose aggregates have the table's capacity.
func newPack(brokers []*BrokerSpec, t *bitvector.PublisherTable) *pack {
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
		stats: t.Stats(), capacity: t.Capacity(),
	}
}

// clear empties the packing in place, keeping its vectors for reuse. Only
// the brokers below opened can hold anything.
func (p *pack) clear() {
	for i := range p.states[:p.opened] {
		p.states[i].clear()
	}
	clear(p.out[:p.opened])
	clear(p.mark[:p.opened])
	p.opened = 0
}

// place puts the unit on the first broker with capacity for it and returns
// that broker's index, or -1 when no broker admits the unit. A broker that
// fits' bandwidth test or saturation mark would turn away is passed over on
// the columns alone — the same two expressions over copies of the same
// values, so fits is called exactly where it would have gone on to its third
// test, and it stays the one definition of admission.
func (p *pack) place(pu *packUnit) int {
	bw, rate := pu.load.Bandwidth, pu.in.Rate
	limit, mark := p.limit[:len(p.out)], p.mark[:len(p.out)]
	for b, out := range p.out {
		if out+bw >= limit[b] || rate < mark[b] {
			continue
		}
		bs := &p.states[b]
		if ok, inter := bs.fits(pu, p.stats); ok {
			bs.accept(pu, inter, p.capacity)
			p.out[b], p.mark[b] = bs.outLoad.Bandwidth, bs.fullBelow
			p.opened = max(p.opened, b+1)
			return b
		}
	}
	return -1
}

// CompareBrokers is the broker trial order, most resourceful first: from
// the paper's experience the broker bottleneck is network I/O, so
// resourcefulness is total output bandwidth, ties broken by ID. Broker IDs
// are unique, so the order is strict and total.
func CompareBrokers(a, b *BrokerSpec) int {
	if c := cmp.Compare(b.OutputBandwidth, a.OutputBandwidth); c != 0 {
		return c
	}
	return strings.Compare(a.ID, b.ID)
}

// sortBrokersByCapacity returns the broker pool in trial order.
func sortBrokersByCapacity(brokers []*BrokerSpec) []*BrokerSpec {
	out := slices.Clone(brokers)
	slices.SortFunc(out, CompareBrokers)
	return out
}

// errUnitUnplaceable reports the unit that no broker could admit.
type errUnitUnplaceable struct {
	unitID string
}

func (e *errUnitUnplaceable) Error() string {
	return fmt.Sprintf("allocation: unit %q cannot be allocated to any broker", e.unitID)
}

// packFirstFit places the blocks' units, block by block and each block in
// order, onto brokers (tried in the given order), implementing the shared
// core of FBF and BIN PACKING: each unit goes to the first broker with
// capacity for it. It fails on the first unplaceable unit, exactly as the
// paper's algorithms terminate. Each block's stream must be its units
// compiled against t. Every unit the Assignment hosts has its Members.
func packFirstFit(blocks []block, brokers []*BrokerSpec, t *bitvector.PublisherTable) (*Assignment, error) {
	p := newPack(brokers, t)
	hosted := make([][]*Unit, len(brokers))
	for _, bl := range blocks {
		for i, u := range bl.units {
			b := p.place(&bl.stream[i])
			if b < 0 {
				return nil, &errUnitUnplaceable{unitID: u.ID}
			}
			hosted[b] = append(hosted[b], u)
		}
	}
	out := &Assignment{
		ByBroker: make(map[string][]*Unit),
		Loads:    make(map[string]BrokerLoad),
		Specs:    make(map[string]*BrokerSpec, len(brokers)),
	}
	for _, b := range brokers {
		out.Specs[b.ID] = b
	}
	for i := range p.states {
		if len(hosted[i]) == 0 {
			continue
		}
		for _, u := range hosted[i] {
			u.fill()
		}
		bs := &p.states[i]
		out.ByBroker[bs.spec.ID] = hosted[i]
		out.Loads[bs.spec.ID] = BrokerLoad{Input: bs.inLoad, Output: bs.outLoad, Filters: bs.filters}
	}
	return out, nil
}

// FitsBroker reports whether the entire unit set can be hosted by one
// broker within both capacity constraints. Phase 3's takeover and best-fit
// optimizations use it to test hypothetical broker contents. The spec, units
// and statistics must meet Input.Validate's contract, as Phase 3's
// pseudo-units do by construction.
func FitsBroker(spec *BrokerSpec, units []*Unit, pubs map[string]*bitvector.PublisherStats) bool {
	t := newPublisherTable(pubs, units)
	compiled := compileUnits(units, t)
	p := newPack([]*BrokerSpec{spec}, t)
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
	slices.SortFunc(out, compareUnits)
	return out
}
